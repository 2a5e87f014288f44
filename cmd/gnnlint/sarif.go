package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"gnndrive/internal/lint"
)

// SARIF 2.1.0 static-analysis results format, the subset GitHub
// code-scanning ingests. Hand-rolled structs keep go.mod zero-dep; the
// field names follow the OASIS schema exactly.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	Help             sarifMessage `json:"help"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the findings as one SARIF run and writes it to w.
// root anchors the relative artifact URIs (SRCROOT in code-scanning
// terms).
func writeSARIF(w io.Writer, root string, analyzers []*lint.Analyzer, findings []lint.Finding) error {
	ruleIndex := make(map[string]int, len(analyzers))
	rules := make([]sarifRule, 0, len(analyzers))
	for i, a := range analyzers {
		ruleIndex[a.Name] = i
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
			Help:             sarifMessage{Text: a.Doc},
		})
	}

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		msg := f.Message
		if f.Hint != "" {
			msg += " (fix: " + f.Hint + ")"
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: ruleIndex[f.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: msg},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: sarifURI(root, f.Pos.Filename), URIBaseID: "SRCROOT"},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "gnnlint", InformationURI: "https://github.com/gnndrive/gnndrive", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifURI makes path relative to root with forward slashes, as the
// artifactLocation.uri field requires.
func sarifURI(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		path = rel
	}
	return filepath.ToSlash(path)
}
