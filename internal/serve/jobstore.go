package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/trainsim"
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle. Queued, Running, and Backoff are live; Interrupted
// marks a job the daemon drained mid-flight (re-admitted on restart);
// the last three are terminal.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateBackoff     JobState = "backoff"
	StateInterrupted JobState = "interrupted"
	StateCompleted   JobState = "completed"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// EpochRecord is one completed epoch's persisted result. StepLosses is
// the full per-step trajectory — what the drain/resume guarantee is
// checked against.
type EpochRecord struct {
	Epoch      int       `json:"epoch"`
	Loss       float64   `json:"loss"`
	Acc        float64   `json:"acc"`
	Batches    int       `json:"batches"`
	TotalMs    int64     `json:"total_ms"`
	StepLosses []float32 `json:"step_losses,omitempty"`
}

// JobRecord is one job's durable state: the verbatim submitted spec plus
// everything needed to re-admit and resume it after a daemon restart.
type JobRecord struct {
	ID     string           `json:"id"`
	Seq    int              `json:"seq"` // submit order, preserved across restart
	Spec   trainsim.JobSpec `json:"spec"`
	State  JobState         `json:"state"`
	Demand Demand           `json:"demand"`
	Epochs []EpochRecord    `json:"epochs,omitempty"`
	// Requeues counts supervisor restarts after faults/stalls.
	Requeues int    `json:"requeues,omitempty"`
	Error    string `json:"error,omitempty"`
}

// manifest is the daemon's whole durable state.
type manifest struct {
	NextSeq int          `json:"next_seq"`
	Jobs    []*JobRecord `json:"jobs"`
}

// jobStore persists the manifest with crash-atomic commits, so a crash
// or failed write mid-save leaves the previous manifest intact.
type jobStore struct {
	dir  string
	sink checkpoint.Sink
}

func newJobStore(dir string) (*jobStore, error) {
	s := &jobStore{dir: dir, sink: checkpoint.OSSink{}}
	if err := checkpoint.MkdirAll(s.sink, dir); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *jobStore) path() string { return filepath.Join(s.dir, "manifest.json") }

// load reads the manifest; a missing file is an empty manifest.
func (s *jobStore) load() (manifest, error) {
	var m manifest
	data, err := os.ReadFile(s.path())
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("serve: corrupt manifest %s: %w", s.path(), err)
	}
	sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].Seq < m.Jobs[j].Seq })
	return m, nil
}

// save commits the manifest atomically.
func (s *jobStore) save(m manifest) error {
	sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].Seq < m.Jobs[j].Seq })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.Commit(s.sink, s.path(), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// jobDir is the per-job scratch root (checkpoints, backing file).
func (s *jobStore) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// epochRecord converts harness stats into the persisted form.
func epochRecord(epoch int, st trainsim.EpochStats) EpochRecord {
	return EpochRecord{
		Epoch:      epoch,
		Loss:       st.Loss,
		Acc:        st.Acc,
		Batches:    st.Batches,
		TotalMs:    st.Total.Milliseconds(),
		StepLosses: st.StepLosses,
	}
}
