// Package serve is the live telemetry plane over the obs layer: one
// http.Handler exposing Prometheus metrics, health/readiness, live run
// progress (JSON and SSE), the full run report, and the net/http/pprof +
// expvar debug surface on one port. It is how a multi-minute CLI run is
// inspected while it runs.
//
// Endpoints (all GET):
//
//	/metrics   Prometheus text exposition (live MetricSet + derived
//	           worker utilization + Go runtime gauges)
//	/healthz   liveness: 200 as long as the process serves
//	/readyz    readiness: 200 once the graph is loaded, 503 before
//	/progress  live run progress: phase, rounds, RR sets, certified
//	           bounds; add ?sse=1 (or Accept: text/event-stream) for a
//	           server-sent-event stream, ?spans=1 to embed the span tree
//	/report    the full schema-versioned run report, live
//	/debug/*   net/http/pprof and Go's standard expvar variables (when
//	           Options.Debug); /debug/pprof/trace is a runtime execution
//	           trace for `go tool trace`, with the generate, index-build,
//	           select-gains, select and reduce regions that obs.Section
//	           opens
//
// Construct a Plane with New, mount Handler on any mux or call Start to
// listen. The plane only *reads* the tracer — through the live-snapshot
// paths of the obs package, lock-free except for the per-worker totals,
// whose mutex a scrape holds only while it copies them — so scraping a
// mid-run process never perturbs the run (see the obs package comment's
// memory-ordering contract).
package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subsim/internal/obs"
)

// Options tunes what the plane exposes.
type Options struct {
	// RuntimeMetrics includes the Go runtime gauges (goroutines, heap,
	// GC pauses, scheduler latency) and process gauges (uptime) on
	// /metrics. Disabled by golden tests that need byte-stable output.
	RuntimeMetrics bool
	// Debug mounts /debug/pprof and /debug/vars on the plane's mux.
	Debug bool
	// Now overrides the wall clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Plane is one live telemetry surface bound to one tracer. All exported
// methods are safe for concurrent use.
type Plane struct {
	tracer *obs.Tracer
	opts   Options
	epoch  time.Time
	mux    *http.ServeMux

	graphLoaded  atomic.Bool
	runsStarted  atomic.Int64
	runsFinished atomic.Int64

	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
}

// New builds a plane over tr with runtime metrics and the debug surface
// enabled — what the CLIs mount under -serve. tr may be nil (endpoints
// then serve empty metric sets and span-free progress).
func New(tr *obs.Tracer) *Plane {
	return NewWithOptions(tr, Options{RuntimeMetrics: true, Debug: true})
}

// NewWithOptions builds a plane with explicit options.
func NewWithOptions(tr *obs.Tracer, o Options) *Plane {
	now := o.Now
	if now == nil {
		now = time.Now
	}
	p := &Plane{tracer: tr, opts: o, epoch: now()}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /readyz", p.handleReadyz)
	p.mux.HandleFunc("GET /progress", p.handleProgress)
	p.mux.HandleFunc("GET /report", p.handleReport)
	p.mux.HandleFunc("GET /{$}", p.handleIndex)
	if o.Debug {
		p.mux.HandleFunc("/debug/pprof/", pprof.Index)
		p.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		p.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		p.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		p.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		p.mux.Handle("GET /debug/vars", expvar.Handler())
	}
	return p
}

// SetGraphLoaded flips the readiness signal: /readyz returns 200 once
// the graph is loaded.
func (p *Plane) SetGraphLoaded(ok bool) { p.graphLoaded.Store(ok) }

// RunStarted marks one algorithm run in flight.
func (p *Plane) RunStarted() { p.runsStarted.Add(1) }

// RunFinished marks one algorithm run complete.
func (p *Plane) RunFinished() { p.runsFinished.Add(1) }

// Handler returns the plane's mux, for mounting on an existing server.
func (p *Plane) Handler() http.Handler { return p.mux }

// Start listens on addr (":0" picks a free port) and serves the plane in
// a background goroutine, returning the bound address.
func (p *Plane) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: p.mux, ReadHeaderTimeout: 5 * time.Second}
	p.mu.Lock()
	p.ln, p.srv = ln, srv
	p.mu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// The listener died underneath us; nothing to clean up beyond
			// what Close already handles.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the background server started by Start (no-op otherwise).
func (p *Plane) Close() error {
	p.mu.Lock()
	srv := p.srv
	p.srv, p.ln = nil, nil
	p.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (p *Plane) now() time.Time {
	if p.opts.Now != nil {
		return p.opts.Now()
	}
	return time.Now()
}

func (p *Plane) uptime() time.Duration { return p.now().Sub(p.epoch) }

func (p *Plane) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "subsim telemetry plane\n\n"+
		"  /metrics   Prometheus exposition (live)\n"+
		"  /healthz   liveness\n"+
		"  /readyz    readiness (graph loaded)\n"+
		"  /progress  live run progress (add ?sse=1 to stream, ?spans=1 for the span tree)\n"+
		"  /report    full run report (JSON)\n"+
		"  /debug/    pprof (/debug/pprof/trace for go tool trace) and expvar\n")
}

func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": p.uptime().Seconds(),
		"goroutines":     runtime.NumGoroutine(),
	})
}

func (p *Plane) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := p.graphLoaded.Load()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":          ready,
		"graph_loaded":   ready,
		"runs_started":   p.runsStarted.Load(),
		"runs_finished":  p.runsFinished.Load(),
		"runs_in_flight": p.runsStarted.Load() - p.runsFinished.Load(),
	})
}

func (p *Plane) handleReport(w http.ResponseWriter, _ *http.Request) {
	rep := p.tracer.Report()
	if rep == nil {
		http.Error(w, "no tracer attached", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// writeJSON renders one JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(buf, '\n'))
}
