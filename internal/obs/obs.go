// Package obs is latticesim's dependency-free observability layer: a
// concurrency-safe metrics registry with Prometheus text exposition
// (obs.go), lightweight trace/span events emitted as NDJSON (trace.go),
// and a leveled structured logger (log.go). Everything is std-lib only
// and nil-safe — a nil *Registry, *SpanWriter, or *Logger accepts every
// call and does nothing, so instrumented code never guards call sites.
//
// Naming follows Prometheus conventions: every series this repo exports
// is prefixed "latticesim_", counters end in "_total", and durations
// are histograms in seconds. Label cardinality is bounded by design —
// the only per-job series (the shots/s gauge) is deleted when the job
// reaches a terminal state.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the Prometheus TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing integer. The zero value is
// unusable; obtain one from Registry.Counter or CounterVec.With.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	total  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// snapshot returns cumulative bucket counts, sum, and total count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.total
}

// DefBuckets is a general-purpose latency bucket layout in seconds,
// spanning sub-millisecond decoder shards to multi-minute attempts.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60,
}

// family is one named metric with its series. Exactly one of the
// value kinds is populated per series, matching the family type.
type family struct {
	name    string
	help    string
	typ     metricType
	bounds  []float64 // histograms only
	labels  []string  // label keys, fixed per family
	mu      sync.Mutex
	series  map[string]*series // keyed by joined label values
	valueFn func() float64     // gauge/counter funcs, evaluated at scrape
}

type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
// All methods are safe for concurrent use, and a nil *Registry accepts
// every call (returning nil-safe value handles).
type Registry struct {
	mu     sync.Mutex
	fams   map[string]*family
	scrape []func()
}

// OnScrape registers fn to run at the start of every exposition
// (WritePrometheus / the /metrics handler). It is how state that has
// one authoritative owner elsewhere — queue depth, per-state job
// counts, active leases — is mirrored into plain gauges at scrape time
// without keeping a second copy that could drift. fn must not call
// WritePrometheus (it may register and set metrics freely).
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.scrape = append(r.scrape, fn)
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first use. It
// panics on a name reused with a different type — a programming error
// caught in tests, never at scrape time.
func (r *Registry) lookup(name, help string, typ metricType, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labels: labels, bounds: bounds,
			series: make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label set", name))
	}
	return f
}

func (f *family) get(vals []string) *series {
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: vals}
		switch f.typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = &Histogram{
				bounds: f.bounds,
				counts: make([]uint64, len(f.bounds)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the unlabeled counter for name, registering the
// family on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, nil).get(nil).counter
}

// Gauge returns the unlabeled gauge for name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, nil).get(nil).gauge
}

// Histogram returns the unlabeled histogram for name with the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, typeHistogram, nil, buckets).get(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values (order matches
// the family's label keys).
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(vals).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(vals).gauge
}

// Delete drops the series for the given label values, bounding
// cardinality for per-job series.
func (v *GaugeVec) Delete(vals ...string) {
	if v == nil {
		return
	}
	key := strings.Join(vals, "\xff")
	v.f.mu.Lock()
	delete(v.f.series, key)
	v.f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time (fn must be monotonic; used to mirror counters owned elsewhere,
// e.g. the store backend's put count).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, typeCounter, nil, nil)
	f.mu.Lock()
	f.valueFn = fn
	f.mu.Unlock()
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// families and series in sorted order so output is diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	callbacks := append([]func(){}, r.scrape...)
	r.mu.Unlock()
	for _, fn := range callbacks {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for n, f := range r.fams {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)

		f.mu.Lock()
		fn := f.valueFn
		ser := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ser = append(ser, s)
		}
		f.mu.Unlock()

		if fn != nil {
			// Func-backed families have exactly one synthetic series.
			fmt.Fprintf(&b, "%s %s\n", f.name, fmtFloat(fn()))
			continue
		}
		sort.Slice(ser, func(i, j int) bool {
			return strings.Join(ser[i].labelVals, "\xff") < strings.Join(ser[j].labelVals, "\xff")
		})
		for _, s := range ser {
			lbl := formatLabels(f.labels, s.labelVals)
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, lbl, s.counter.Value())
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, lbl, fmtFloat(s.gauge.Value()))
			case typeHistogram:
				cum, sum, total := s.hist.snapshot()
				bKeys := append(append([]string{}, f.labels...), "le")
				for i, bound := range f.bounds {
					bVals := append(append([]string{}, s.labelVals...), fmtFloat(bound))
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, formatLabels(bKeys, bVals), cum[i])
				}
				infVals := append(append([]string{}, s.labelVals...), "+Inf")
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, formatLabels(bKeys, infVals), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, lbl, fmtFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, lbl, total)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func formatLabels(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(vals) {
			v = vals[i]
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.IsInf(v, 0) {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
