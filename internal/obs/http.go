package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// String implements expvar.Var: the registry renders as its snapshot JSON,
// so a published registry appears as one structured variable in
// /debug/vars.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Publish registers the registry with the process-wide expvar table under
// the given name. Publishing twice (even under different names) is a no-op
// after the first call, since expvar panics on duplicate names and a
// registry needs at most one identity there.
func (r *Registry) Publish(name string) {
	if r.published.CompareAndSwap(false, true) {
		expvar.Publish(name, r)
	}
}

// Handler returns the observability mux:
//
//	/metrics          registry snapshot as indented JSON
//	/debug/vars       the expvar table (expvar-compatible consumers)
//	/debug/pprof/...  the standard pprof profiles
//
// pprof handlers are mounted on this mux explicitly rather than relying on
// the net/http/pprof side effect on http.DefaultServeMux, so importing obs
// never mutates global HTTP state.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.Snapshot().WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownTimeout bounds how long a metrics shutdown waits for in-flight
// requests before closing their connections.
const shutdownTimeout = 5 * time.Second

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot pin a server goroutine forever.
// There is deliberately no whole-request ReadTimeout: without an
// IdleTimeout it would also cut off idle keep-alive connections.
const readHeaderTimeout = 10 * time.Second

// Serve publishes the registry (under "ccprof") and serves Handler on addr
// in a background goroutine. It returns the bound address (useful with
// ":0") and a shutdown function that drains in-flight requests
// (http.Server.Shutdown under a timeout) and reports the first serving
// failure, if the server died before it was asked to stop. The CLIs wire
// this to -metrics-addr.
func (r *Registry) Serve(addr string) (string, func() error, error) {
	return r.ServeNotify(addr, nil)
}

// ServeNotify is Serve with a death notification: a metrics server that
// stops serving for any reason other than a clean shutdown calls onErr
// (when non-nil) once with the listener failure, from the serving
// goroutine. Long-running processes wire onErr to their logs so a dying
// health surface is visible the moment it happens instead of at exit.
func (r *Registry) ServeNotify(addr string, onErr func(error)) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	r.Publish("ccprof")
	return r.serveOn(ln, onErr)
}

// serveOn runs the HTTP server on an already-bound listener. Split from
// ServeNotify so tests can inject a failing listener.
func (r *Registry) serveOn(ln net.Listener, onErr func(error)) (string, func() error, error) {
	return serveHandler(ln, r.Handler(), onErr)
}

// serveHandler is the transport core shared by serveOn and its tests: it
// serves h on ln in a background goroutine, reports server death through
// onErr, and returns an idempotent graceful-shutdown func.
func serveHandler(ln net.Listener, h http.Handler, onErr func(error)) (string, func() error, error) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil // clean shutdown, not a death
		}
		if err != nil && onErr != nil {
			onErr(err)
		}
		served <- err
	}()
	shutdown := sync.OnceValue(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		serr := srv.Shutdown(ctx)
		if err := <-served; err != nil {
			// The server had already died on its own; that failure is the
			// interesting one, not the redundant shutdown.
			return err
		}
		return serr
	})
	return ln.Addr().String(), shutdown, nil
}
