package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"latticesim/internal/mc"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
)

// Record is the machine-readable result of one campaign point. The JSON
// field names below are the schema contract, documented field-by-field in
// EXPERIMENTS.md §4; CSVHeader flattens the same fields in the same
// order. Every field except wall_ms is a deterministic function of
// (point, campaign seed, shots).
type Record struct {
	// Key is the point's canonical identity (Point.Key), the join key for
	// manifests and downstream dedup.
	Key string `json:"key"`

	// Point coordinates.
	Policy        string  `json:"policy"`
	D             int     `json:"d"`
	TauNs         float64 `json:"tau_ns"`
	P             float64 `json:"p"`
	Basis         string  `json:"basis"`
	Hardware      string  `json:"hardware"`
	CyclePNs      float64 `json:"cycle_p_ns"`
	CyclePPrimeNs float64 `json:"cycle_pprime_ns"`
	EpsNs         int64   `json:"eps_ns"`

	// Execution parameters. Seed is a full-range uint64 (a SplitMix64
	// output, usually above 2^53), so it is encoded as a JSON string —
	// double-precision JSON tooling would silently round a bare number.
	Seed  uint64 `json:"seed,string"`
	Shots int    `json:"shots"`

	// Plan resolution. When Feasible is false the policy's equations had
	// no solution for the point and no shots were run; every statistic
	// below is zero.
	Feasible          bool    `json:"feasible"`
	ExtraRoundsP      int     `json:"extra_rounds_p"`
	ExtraRoundsPPrime int     `json:"extra_rounds_pprime"`
	TotalIdleNs       float64 `json:"total_idle_ns"`

	// Per-observable statistics (merge experiments expose exactly two
	// observables: the joint seam operator and the single-patch logical).
	// Wilson bounds are the 95% score interval from internal/stats.
	JointErrors      int     `json:"joint_errors"`
	JointRate        float64 `json:"joint_rate"`
	JointWilsonLow   float64 `json:"joint_wilson_low"`
	JointWilsonHigh  float64 `json:"joint_wilson_high"`
	SingleErrors     int     `json:"single_errors"`
	SingleRate       float64 `json:"single_rate"`
	SingleWilsonLow  float64 `json:"single_wilson_low"`
	SingleWilsonHigh float64 `json:"single_wilson_high"`

	// MeanHammingWeight is the mean syndrome weight per shot.
	MeanHammingWeight float64 `json:"mean_hamming_weight"`

	// Adaptive-allocation outcome (EXPERIMENTS.md §12). ShotsGranted is
	// the number of shots actually run: equal to Shots under a fixed
	// budget, the allocator's grant under an adaptive one, and 0 for
	// infeasible points. StopReason records why the point stopped —
	// "fixed", "converged", "max-shots", "exhausted" or "infeasible".
	// Estimator names the statistics path: "mc" (plain counting, Wilson
	// intervals) for every feasible point, empty for infeasible ones.
	ShotsGranted int    `json:"shots_granted"`
	StopReason   string `json:"stop_reason"`
	Estimator    string `json:"estimator"`

	// WallMs is the point's wall-clock execution time in milliseconds —
	// the only field excluded from determinism guarantees.
	WallMs float64 `json:"wall_ms"`
}

// fillStats populates the observable statistics from a pipeline result.
func (r *Record) fillStats(res mc.LERResult) {
	joint := stats.Binomial{Successes: res.Errors[surface.ObsJoint], Trials: res.Shots}
	single := stats.Binomial{Successes: res.Errors[surface.ObsSingle], Trials: res.Shots}
	r.JointErrors = joint.Successes
	r.JointRate = joint.Rate()
	r.JointWilsonLow, r.JointWilsonHigh = joint.WilsonInterval(1.96)
	r.SingleErrors = single.Successes
	r.SingleRate = single.Rate()
	r.SingleWilsonLow, r.SingleWilsonHigh = single.WilsonInterval(1.96)
	r.MeanHammingWeight = res.MeanHammingWeight()
}

// CanonicalJSON renders the record's JSON line with the volatile wall_ms
// field zeroed — the byte-comparison form the determinism tests (and any
// regression tracking) should diff.
func (r Record) CanonicalJSON() ([]byte, error) {
	r.WallMs = 0
	return json.Marshal(r)
}

// Sink receives completed records in canonical point order.
type Sink interface {
	Write(Record) error
}

// Syncer is implemented by sinks that can flush to durable storage. The
// campaign runner syncs every such sink before journaling a point in the
// manifest, so a journaled key always implies a durable record.
type Syncer interface {
	Sync() error
}

// JSONLWriter streams records as JSON lines.
type JSONLWriter struct{ W io.Writer }

// Write emits one record as a single JSON line.
func (j *JSONLWriter) Write(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = j.W.Write(b)
	return err
}

// Sync flushes the underlying writer when it supports it (*os.File
// does); otherwise it is a no-op.
func (j *JSONLWriter) Sync() error {
	if s, ok := j.W.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// CSVHeader is the column order of CSVWriter rows; it mirrors the JSON
// schema field-for-field.
func CSVHeader() []string {
	return []string{
		"key", "policy", "d", "tau_ns", "p", "basis", "hardware",
		"cycle_p_ns", "cycle_pprime_ns", "eps_ns", "seed", "shots",
		"feasible", "extra_rounds_p", "extra_rounds_pprime", "total_idle_ns",
		"joint_errors", "joint_rate", "joint_wilson_low", "joint_wilson_high",
		"single_errors", "single_rate", "single_wilson_low", "single_wilson_high",
		"mean_hamming_weight", "shots_granted", "stop_reason", "estimator",
		"wall_ms",
	}
}

// CSVWriter streams records as CSV rows. Call WriteHeader first when
// starting a fresh file; omit it when appending to a resumed campaign's
// output.
type CSVWriter struct {
	w  io.Writer
	cw *csv.Writer
}

// NewCSVWriter wraps w in a record sink.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: w, cw: csv.NewWriter(w)} }

// Sync flushes buffered rows and, when the underlying writer supports it
// (*os.File does), pushes them to durable storage.
func (c *CSVWriter) Sync() error {
	c.cw.Flush()
	if err := c.cw.Error(); err != nil {
		return err
	}
	if s, ok := c.w.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// WriteHeader emits the column-name row.
func (c *CSVWriter) WriteHeader() error {
	if err := c.cw.Write(CSVHeader()); err != nil {
		return err
	}
	c.cw.Flush()
	return c.cw.Error()
}

// Write emits one record as a CSV row and flushes it, so an interrupted
// campaign leaves no buffered rows behind.
func (c *CSVWriter) Write(r Record) error {
	row := []string{
		r.Key, r.Policy, strconv.Itoa(r.D), fstr(r.TauNs), fstr(r.P), r.Basis, r.Hardware,
		fstr(r.CyclePNs), fstr(r.CyclePPrimeNs), strconv.FormatInt(r.EpsNs, 10),
		strconv.FormatUint(r.Seed, 10), strconv.Itoa(r.Shots),
		strconv.FormatBool(r.Feasible), strconv.Itoa(r.ExtraRoundsP),
		strconv.Itoa(r.ExtraRoundsPPrime), fstr(r.TotalIdleNs),
		strconv.Itoa(r.JointErrors), fstr(r.JointRate), fstr(r.JointWilsonLow), fstr(r.JointWilsonHigh),
		strconv.Itoa(r.SingleErrors), fstr(r.SingleRate), fstr(r.SingleWilsonLow), fstr(r.SingleWilsonHigh),
		fstr(r.MeanHammingWeight), strconv.Itoa(r.ShotsGranted), r.StopReason, r.Estimator,
		fstr(r.WallMs),
	}
	if err := c.cw.Write(row); err != nil {
		return err
	}
	c.cw.Flush()
	return c.cw.Error()
}

// sliceSink collects records in memory (Collect's sink).
type sliceSink struct{ recs []Record }

func (s *sliceSink) Write(r Record) error {
	s.recs = append(s.recs, r)
	return nil
}
