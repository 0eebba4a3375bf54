package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeBasics pins the scalar handle semantics: monotone
// counters that ignore negative deltas, and set/add gauges.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters are monotone; negative deltas are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Same name returns the same underlying series.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-lookup minted a new counter")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// lookups, increments, histogram observations, vec churn and scrapes
// all interleaved — and checks the final counter total. Run under
// -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", "h").Inc()
				r.Gauge("depth", "h").Set(float64(i))
				r.Histogram("dur_seconds", "h", nil).Observe(float64(i) / 1000)
				v := r.GaugeVec("by_job", "h", "job")
				v.With(fmt.Sprintf("j%d", i%3)).Set(float64(w))
				if i%10 == 0 {
					v.Delete(fmt.Sprintf("j%d", i%3))
				}
				if i%25 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "h").Value(); got != workers*iters {
		t.Fatalf("ops_total = %d, want %d", got, workers*iters)
	}
}

// TestWritePrometheusGolden pins the exposition format end to end:
// HELP/TYPE lines, sorted families and series, label escaping,
// histogram bucket/sum/count rendering, and scrape-time func metrics.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "counts b").Add(3)
	r.GaugeVec("a", "a by kind\nsecond line", "kind").With(`x"y\z`).Set(1.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterFunc("f_total", "func counter", func() float64 { return 42 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a a by kind\nsecond line
# TYPE a gauge
a{kind="x\"y\\z"} 1.5
# HELP b_total counts b
# TYPE b_total counter
b_total 3
# HELP f_total func counter
# TYPE f_total counter
f_total 42
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOnScrape verifies scrape callbacks run before each exposition
// and see a registry they may freely write to.
func TestOnScrape(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.OnScrape(func() {
		n++
		r.Gauge("live", "h").Set(float64(n))
	})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	buf.Reset()
	r.WritePrometheus(&buf)
	if n != 2 {
		t.Fatalf("scrape callback ran %d times, want 2", n)
	}
	if !strings.Contains(buf.String(), "live 2\n") {
		t.Fatalf("second scrape missing live 2:\n%s", buf.String())
	}
}

// TestHandler checks the HTTP exposition endpoint and content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1\n") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

// TestNilSafety drives every handle through a nil receiver: the
// instrumented code paths never check whether observability is on, so
// the nil forms must accept everything silently.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "h").Inc()
	r.Gauge("b", "h").Set(1)
	r.Histogram("c", "h", nil).Observe(1)
	r.CounterVec("d_total", "h", "k").With("v").Inc()
	r.GaugeVec("e", "h", "k").With("v").Set(1)
	r.GaugeVec("e", "h", "k").Delete("v")
	r.CounterFunc("h_total", "h", func() float64 { return 0 })
	r.OnScrape(func() {})

	var sw *SpanWriter
	sw.Start(SpanEvent{Span: "s"})
	sw.End(SpanEvent{Span: "s"}, time.Now(), "done")
	sw.Emit(SpanEvent{Span: "s"})

	var lg *Logger
	lg.Debug("e")
	lg.Info("e", "k", 1)
	lg.Warn("e")
	lg.Error("e")
}

// TestTraceIDs pins the ID alphabet both ways.
func TestTraceIDs(t *testing.T) {
	id := NewTraceID()
	if !ValidTraceID(id) {
		t.Fatalf("NewTraceID minted invalid ID %q", id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatalf("two trace IDs collided: %q", id)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("A", 32), strings.Repeat("g", 32), strings.Repeat("0", 31), strings.Repeat("0", 33)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	if !ValidTraceID(strings.Repeat("0a", 16)) {
		t.Error("valid hex ID rejected")
	}
}

// TestSpanWriterNDJSON checks start/end pairs come out as one JSON
// object per line with the phase/outcome/duration contract.
func TestSpanWriterNDJSON(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	ev := SpanEvent{Trace: strings.Repeat("ab", 16), Span: "j000001", Name: "job", Job: "j000001"}
	sw.Start(ev)
	sw.End(ev, time.Now().Add(-50*time.Millisecond), "done")
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"phase":"start"`) {
		t.Errorf("start line: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"phase":"end"`) || !strings.Contains(lines[1], `"outcome":"done"`) || !strings.Contains(lines[1], `"dur_ms"`) {
		t.Errorf("end line: %s", lines[1])
	}
}

// TestLoggerLevels checks threshold filtering and the structured
// line shape.
func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelWarn)
	lg.Info("dropped")
	lg.Warn("kept", "job", "j1", "n", 3)
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("info line leaked past warn threshold: %s", out)
	}
	if !strings.Contains(out, `"event":"kept"`) || !strings.Contains(out, `"job":"j1"`) || !strings.Contains(out, `"level":"warn"`) {
		t.Fatalf("warn line malformed: %s", out)
	}
	if ParseLevel("ERROR") != LevelError || ParseLevel("bogus") != LevelInfo || ParseLevel("debug") != LevelDebug {
		t.Fatal("ParseLevel mapping wrong")
	}
}
