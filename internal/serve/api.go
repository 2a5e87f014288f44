package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"gnndrive/internal/metrics"
	"gnndrive/internal/trainsim"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs      submit a trainsim.JobSpec; 201 + record,
//	                  400 bad spec, 413 body over 1 MiB,
//	                  429 + Retry-After when overloaded
//	GET    /jobs      list all job records in submit order
//	GET    /jobs/{id} one job record (404 unknown)
//	DELETE /jobs/{id} cancel a job (204; idempotent on terminal jobs)
//	GET    /metrics   per-job counter snapshots plus pool occupancy
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// maxSpecBytes bounds a POST /jobs body; a JobSpec takes a few hundred
// bytes.
const maxSpecBytes = 1 << 20

// decodeSpec parses a POST /jobs body: one JSON object and nothing after
// it. Unknown fields are an error, so a misspelled knob is rejected rather
// than silently defaulted, and so is a second value, which would otherwise
// be ignored.
func decodeSpec(body io.Reader) (trainsim.JobSpec, error) {
	var spec trainsim.JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: invalid JSON: %w", ErrBadSpec, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, fmt.Errorf("%w: data after the spec's JSON value", ErrBadSpec)
	}
	return spec, nil
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var id string
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err == nil {
		id, err = d.Submit(spec)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrOverloaded):
		// The caller can retry once running jobs release their slices;
		// one second is the polling cadence, not a promise.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrBadSpec):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	rec, _ := d.Job(id)
	writeJSON(w, http.StatusCreated, rec)
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.Jobs())
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := d.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.Cancel(r.PathValue("id")); err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// metricsReport is the /metrics payload: one counter snapshot per job,
// the shared envelope's occupancy, and per-job cumulative milliseconds
// spent queued for extract-read permits in the fair-share scheduler
// (finished jobs keep their totals).
type metricsReport struct {
	Jobs    map[string]metrics.Snapshot `json:"jobs"`
	Pool    poolReport                  `json:"pool"`
	IOQueue map[string]float64          `json:"io_queue_wait_ms"`
}

type poolReport struct {
	StagingSlotsUsed  int   `json:"staging_slots_used"`
	StagingSlotsTotal int   `json:"staging_slots_total"`
	FeatureBytesUsed  int64 `json:"feature_bytes_used"`
	FeatureBytesTotal int64 `json:"feature_bytes_total"`
	IOTokens          int   `json:"io_tokens"`
	Queued            int   `json:"queued"`
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	p := d.pool
	p.mu.Lock()
	rep := metricsReport{
		Jobs: d.reg.SnapshotAll(),
		Pool: poolReport{
			StagingSlotsUsed:  p.slotsUsed,
			StagingSlotsTotal: p.staging.Slots(),
			FeatureBytesUsed:  p.featUsed,
			FeatureBytesTotal: p.featBudget,
			IOTokens:          d.sched.Capacity(),
			Queued:            len(p.queue),
		},
	}
	p.mu.Unlock()
	rep.IOQueue = make(map[string]float64)
	for id, d := range d.sched.QueueWaits() {
		rep.IOQueue[id] = float64(d) / float64(time.Millisecond)
	}
	writeJSON(w, http.StatusOK, rep)
}
