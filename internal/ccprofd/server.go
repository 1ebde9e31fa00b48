package ccprofd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxSpecBytes bounds a POST /jobs body. The largest legitimate spec is a
// few hundred bytes; the bound keeps one oversized request from holding
// the daemon's memory (the decoder would otherwise buffer the whole body).
const maxSpecBytes = 64 << 10

// Handler mounts the job API and the obs surface on one mux:
//
//	POST /jobs             submit a Spec; 202 + job JSON, 400 invalid,
//	                       413 body over maxSpecBytes,
//	                       429 + Retry-After when the queue is full,
//	                       503 while draining
//	GET  /jobs             list all jobs
//	GET  /jobs/{id}        one job's status
//	GET  /jobs/{id}/result the artifact (verified against its sha256)
//	GET  /healthz          process liveness
//	GET  /readyz           admission readiness (503 while draining)
//	GET  /metrics          obs snapshot JSON (plus /debug/vars, /debug/pprof)
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", d.handleResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if d.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	obsHandler := d.reg.Handler()
	mux.Handle("GET /metrics", obsHandler)
	mux.Handle("GET /debug/", obsHandler)
	return mux
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorJSON is the uniform error body.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			errorJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("job spec exceeds %d bytes", tooBig.Limit))
			return
		}
		errorJSON(w, http.StatusBadRequest, "decoding job spec: "+err.Error())
		return
	}
	job, err := d.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		errorJSON(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrBadSpec):
		errorJSON(w, http.StatusBadRequest, err.Error())
	default:
		errorJSON(w, http.StatusInternalServerError, err.Error())
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.Jobs())
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := d.Get(r.PathValue("id"))
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := d.Get(r.PathValue("id"))
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown job")
		return
	}
	switch job.State {
	case StateDone:
	case StateFailed:
		errorJSON(w, http.StatusConflict, "job failed ("+job.FailKind+"): "+job.Error)
		return
	default:
		errorJSON(w, http.StatusConflict, "job is "+string(job.State)+"; no result yet")
		return
	}
	data, err := d.Artifact(job)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrCorruptArtifact) {
			// Never serve bytes that fail verification; the hash in the
			// error tells the operator which file to inspect.
			errorJSON(w, status, err.Error())
			return
		}
		errorJSON(w, status, "reading artifact: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Artifact-Sha256", job.Artifact)
	w.Write(data)
}
