package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/engine/scenario"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// minRepeats is the fewest timed repeats a run may report from.
	minRepeats int
	// params records the workload's shape in the result.
	params map[string]any
	// setup performs one dry set-up and returns its seconds.
	setup func(r run) (float64, error)
	// repeat runs the workload once on a fresh system.
	repeat func(r run) (*measured, error)
	// shape is the swap digraph the workload clears, for the core probes.
	shape shape
	// hooked says the harness builds the workload's engine itself, so the
	// traced repeat can install its hooks. An unhooked workload's layer
	// numbers come from an untraced repeat's result alone.
	hooked bool
	// ladder runs the GOMAXPROCS x shards rows after the traced repeat.
	ladder bool
}

// A run takes the median of at least setupMin dry set-ups, back to
// back before the warm-up, and keeps sampling for setupBudget (up to
// setupMax): a sub-millisecond set-up on a shared box needs a few
// hundred samples before its median holds still.
const (
	setupMin    = 15
	setupMax    = 401
	setupBudget = 700 * time.Millisecond
	// setupBatches is how many consecutive batches the samples are cut
	// into for the record.
	setupBatches = 9
	// probeFor is how long each per-layer probe keeps calling its function.
	probeFor = 200 * time.Millisecond
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every workload (tests run at 1/100).
	scale float64
	// scratch holds WAL directories and trace files; inside the checkout.
	scratch string
	// setupFor and probeFor are the set-up sampling and per-probe time
	// budgets (setupBudget and probeFor outside tests).
	setupFor, probeFor time.Duration
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Values are the per-repeat readings Value is the median of.
	Values []float64 `json:"values,omitempty"`
	// Samples is the sample count behind a percentile, and Percentile
	// the percentile actually read (a tail metric falls back to a lower
	// one when fewer than ten samples lie beyond it).
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// ladderRow is one cell of the sharded workload's scaling ladder.
type ladderRow struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Shards         int     `json:"shards"`
	SwapsPerS      float64 `json:"swaps_per_s"`
	CPUMsPerSwap   float64 `json:"cpu_ms_per_swap"`
	SettleP50Ticks float64 `json:"settle_p50_ticks"`
	SettleP99Ticks float64 `json:"settle_p99_ticks"`
}

// workloadResult is one workload's record.
type workloadResult struct {
	Name      string         `json:"name"`
	Params    map[string]any `json:"params"`
	Repeats   int            `json:"repeats"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	// Safety lists broken safety invariants; Notes operational failures.
	Safety []string `json:"safety,omitempty"`
	Notes  []string `json:"notes,omitempty"`
	// StartupS is everything before the first timed repeat: the dry
	// set-ups and the discarded warm-up repeat.
	StartupS float64                `json:"startup_s"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Ladder   []ladderRow            `json:"ladder,omitempty"`

	spec *benchSpec
	// undeclared collects metrics the harness produced that BENCHMARK.json
	// does not declare; runWorkload fails on any.
	undeclared []string
}

// put records a metric under its declared unit.
func (res *workloadResult) put(section map[string]metricValue, name string, v metricValue) {
	m, ok := res.spec.metric(name)
	if !ok {
		res.undeclared = append(res.undeclared, name)
		return
	}
	v.Unit = m.Unit
	section[name] = v
}

func (res *workloadResult) layer(name string, value float64) {
	res.put(res.PerLayer, name, metricValue{Value: value})
}

// layerTail records a percentile metric with the samples behind it.
func (res *workloadResult) layerTail(name string, value float64, d dist, pct float64) {
	res.put(res.PerLayer, name, metricValue{Value: value, Samples: d.N, Percentile: pct})
}

// perRepeat reads one value off every repeat.
func perRepeat(reps []*measured, f func(*measured) float64) []float64 {
	out := make([]float64, len(reps))
	for i, m := range reps {
		out[i] = f(m)
	}
	return out
}

func perSwap(total float64, m *measured) float64 { return total / float64(max(m.swaps, 1)) }

func (m *measured) swapsPerS() float64    { return float64(m.swaps) / m.use.wallS }
func (m *measured) cpuMsPerSwap() float64 { return perSwap(m.use.cpuS*1000, m) }

// runWorkload measures one workload: dry set-ups, a discarded warm-up
// repeat, timed repeats for opt.seconds (at least minRepeats), then —
// with tracing on — one traced repeat, the probes and the ladder.
// End-to-end numbers always come from the untraced repeats.
func runWorkload(w workload, spec *benchSpec, opt options) (*workloadResult, error) {
	begin := time.Now()
	r := run{seed: opt.seed, scale: opt.scale, tmp: opt.scratch}
	res := &workloadResult{
		Name: w.name, Params: w.params, spec: spec,
		EndToEnd: make(map[string]metricValue),
	}

	var setups []float64
	for len(setups) < setupMin || (len(setups) < setupMax && time.Since(begin) < opt.setupFor) {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		s, err := w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, s)
	}
	if _, err := w.repeat(r); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	res.StartupS = time.Since(begin).Seconds()

	var reps []*measured
	for measuring := time.Now(); len(reps) < w.minRepeats || time.Since(measuring).Seconds() < opt.seconds; {
		runtime.GC() // every repeat starts from a collected heap
		m, err := w.repeat(r)
		if err != nil {
			return nil, fmt.Errorf("%s: repeat %d: %w", w.name, len(reps)+1, err)
		}
		reps = append(reps, m)
	}
	res.Repeats = len(reps)
	for _, m := range reps {
		res.Attempted += m.offered
		res.Failed += m.failed
		res.Safety = append(res.Safety, m.safety...)
		res.Notes = append(res.Notes, m.notes...)
	}

	e2e := func(name string, values []float64) {
		res.put(res.EndToEnd, name, metricValue{Value: median(values), Values: values})
	}
	// The record keeps set-up as batch medians: a few hundred raw samples
	// say how noisy one sub-millisecond timing is, not how steady the
	// median over them is, and compare judges spread from these values.
	res.put(res.EndToEnd, "setup_s", metricValue{Value: median(setups), Values: batchMedians(setups, setupBatches), Samples: len(setups), Percentile: 50})
	e2e("swaps_per_s", perRepeat(reps, (*measured).swapsPerS))
	e2e("cpu_ms_per_swap", perRepeat(reps, (*measured).cpuMsPerSwap))
	e2e("allocs_per_swap", perRepeat(reps, func(m *measured) float64 { return perSwap(float64(m.use.mallocs), m) }))
	settle := make([]dist, len(reps))
	for i, m := range reps {
		settle[i] = summarize(m.settleTicks)
	}
	last := settle[len(settle)-1]
	p50 := make([]float64, len(reps))
	tail := make([]float64, len(reps))
	for i, d := range settle {
		p50[i], tail[i] = d.P50, d.Tail
	}
	res.put(res.EndToEnd, "settle_p50_ticks", metricValue{Value: median(p50), Values: p50, Samples: last.N, Percentile: 50})
	res.put(res.EndToEnd, "settle_p99_ticks", metricValue{Value: median(tail), Values: tail, Samples: last.N, Percentile: last.TailPct})
	res.put(res.EndToEnd, "peak_rss_mb", metricValue{Value: peakRSSMB()})
	// Three end-to-end numbers BENCHMARK.json has to list per layer — its
	// end-to-end schema wants a relative bound on a metric every workload
	// has, and one of these is exact, one exists on a single workload and
	// one is zero on a good run. compare knows their rules.
	if reps[0].chainBytes > 0 { // adversarial: the scenario keeps its registry to itself
		e2e("chain_bytes_per_swap", perRepeat(reps, func(m *measured) float64 { return perSwap(float64(m.chainBytes), m) }))
	}
	if reps[0].recoverMs > 0 {
		e2e("recover_ms", perRepeat(reps, func(m *measured) float64 { return m.recoverMs }))
	}
	res.put(res.EndToEnd, "failed_share", metricValue{Value: float64(res.Failed) / float64(max(res.Attempted, 1))})

	if opt.trace {
		res.PerLayer = make(map[string]metricValue)
		if err := res.traced(w, r, reps[len(reps)-1], opt); err != nil {
			return nil, err
		}
	}
	if len(res.undeclared) > 0 {
		return nil, fmt.Errorf("%s: metrics not declared in %s: %v", w.name, specFile, res.undeclared)
	}
	res.Correct = len(res.Safety) == 0
	return res, nil
}

// traced runs the traced repeat and fills the per-layer section. last
// is the final untraced repeat, which stands in for the traced one on a
// workload the harness cannot hook (tracing then costs nothing, by
// construction).
func (res *workloadResult) traced(w workload, r run, last *measured, opt options) error {
	m, overhead := last, 0.0
	if w.hooked {
		r.tr = &tracer{}
		runtime.GC()
		var err error
		if m, err = w.repeat(r); err != nil {
			return fmt.Errorf("%s: traced repeat: %w", w.name, err)
		}
		r.tr = nil
		res.Safety = append(res.Safety, m.safety...)
		res.Notes = append(res.Notes, m.notes...)
		overhead = 1 - m.swapsPerS()/res.EndToEnd["swaps_per_s"].Value
	}
	for name, v := range m.layer {
		res.layer(name, v)
	}
	res.layer("trace_overhead_share", overhead)

	if late := summarize(m.lateTicks); late.N > 0 { // the closed loop has no schedule to be late against
		res.layerTail("loadgen.late_ticks_p99", late.Tail, late, late.TailPct)
		res.layer("loadgen.late_ticks_max", m.lateTicks[late.N-1]) // summarize sorted them
	}
	res.layer("engine.clear.rounds_per_swap", perSwap(float64(m.rounds), m))
	settled := 0
	for _, n := range m.report.Outcomes {
		settled += n
	}
	res.layer("conc.deal_share", float64(m.report.Outcomes["Deal"])/float64(max(settled, 1)))
	res.layer("runtime.gc_cpu_share", m.use.gcCPUS/m.use.cpuS)
	res.layer("runtime.alloc_kb_per_swap", perSwap(float64(m.use.allocBytes)/1024, m))
	if wall := summarize(m.settleWallMs); wall.N > 0 {
		res.layerTail("engine.settle_wall.p50_ms", wall.P50, wall, 50)
		res.layerTail("engine.settle_wall.p99_ms", wall.Tail, wall, wall.TailPct)
	} else { // adversarial: the scenario's report has the percentiles, not the samples
		res.layer("engine.settle_wall.p50_ms", m.report.P50LatencyMs)
		res.layer("engine.settle_wall.p99_ms", m.report.P99LatencyMs)
	}

	probes, err := runProbes(opt.seed, w.shape, max(m.batch, 1), opt.probeFor)
	if err != nil {
		return fmt.Errorf("%s: probes: %w", w.name, err)
	}
	for name, v := range probes {
		res.layer(name, v)
	}

	if w.ladder {
		if err := res.runLadder(w, r); err != nil {
			return err
		}
	}
	if m.spans != nil {
		return writeTrace(opt.scratch, w.name, m.spans)
	}
	return nil
}

// runLadder fills the GOMAXPROCS in {1, nproc} x shards in {1, shardCount}
// table. The (nproc, shardCount) cell is the workload itself — its
// untraced median — and the other three are one extra repeat each.
func (res *workloadResult) runLadder(w workload, r run) error {
	procs := runtime.GOMAXPROCS(0)
	row := func(p, s int, m *measured) ladderRow {
		d := summarize(m.settleTicks)
		return ladderRow{
			GOMAXPROCS: p, Shards: s, SwapsPerS: m.swapsPerS(), CPUMsPerSwap: m.cpuMsPerSwap(),
			SettleP50Ticks: d.P50, SettleP99Ticks: d.Tail,
		}
	}
	own := res.EndToEnd
	res.Ladder = []ladderRow{{
		GOMAXPROCS: procs, Shards: shardCount,
		SwapsPerS: own["swaps_per_s"].Value, CPUMsPerSwap: own["cpu_ms_per_swap"].Value,
		SettleP50Ticks: own["settle_p50_ticks"].Value, SettleP99Ticks: own["settle_p99_ticks"].Value,
	}}
	for _, cell := range [][2]int{{procs, 1}, {1, shardCount}, {1, 1}} {
		r.procs, r.shards = cell[0], cell[1]
		runtime.GC()
		m, err := w.repeat(r)
		if err != nil {
			return fmt.Errorf("%s: ladder %dx%d: %w", w.name, cell[0], cell[1], err)
		}
		res.Safety = append(res.Safety, m.safety...)
		res.Ladder = append(res.Ladder, row(cell[0], cell[1], m))
	}
	res.layer("shard.scaling", res.Ladder[0].SwapsPerS/res.Ladder[2].SwapsPerS)
	return nil
}

// writeTrace dumps the traced repeat's spans to trace-<workload>.json.
func writeTrace(dir, name string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{name, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}

// setupAdversarial is the adversarial workload's dry set-up. The
// scenario owns its engine, so the smallest scenario that stands one up
// — one conforming three-party ring through the same configuration —
// stands in for it. (With the ring-size range and the deviation mix left
// in, how big that one swap is and whether it commits or aborts, and so
// what the set-up costs, would depend on the seed.)
func setupAdversarial(r run) (float64, error) {
	sc := advScenario(r)
	sc.Offers, sc.RingMin, sc.RingMax = 3, 3, 3
	sc.Deviations = nil
	begin := time.Now()
	if _, err := scenario.Run(sc); err != nil {
		return 0, err
	}
	return time.Since(begin).Seconds(), nil
}

// contractLine is the single JSON object the driver reads off the last
// line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contract renders the result as the driver's line: every end-to-end
// metric untraced, every per-layer metric traced. A per-layer metric a
// workload does not have (no WAL, no shards, no hook surface) reads 0.
func (res *workloadResult) contract(traced bool) contractLine {
	line := contractLine{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue),
	}
	declared := res.spec.EndToEnd
	if traced {
		declared = res.spec.PerLayer
	}
	for _, m := range declared {
		v, ok := res.PerLayer[m.Name]
		if !ok {
			v = res.EndToEnd[m.Name]
		}
		line.Metrics[m.Name] = metricValue{Value: v.Value, Unit: m.Unit}
	}
	return line
}
