package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"time"
)

// SubSeeds is how many configurations one run cycles through: seed n runs
// the workload at seeds n·SubSeeds … n·SubSeeds+SubSeeds−1. Host cost
// depends on the generated site, so a result averages over several sites
// instead of resting on one.
const SubSeeds = 8

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the timed phase's budget: timed iterations continue
	// until it is spent and at least MinIters have run.
	Seconds  float64
	MinIters int
	// Layers adds the traced pass and the layer replays.
	Layers bool
	// Small selects the reduced-size workload configuration.
	Small bool
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Manifest identifies a result: the run is (seed, configuration) on a
// stated build and host, so any number can be regenerated.
type Manifest struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	ConfigHash string  `json:"config_hash"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Iterations int     `json:"iterations"`
	Seconds    float64 `json:"seconds"`
	Layers     bool    `json:"layers"`
}

// Report is the result of one run, as written by -out.
type Report struct {
	Manifest    Manifest         `json:"manifest"`
	Fingerprint string           `json:"fingerprint"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]Value `json:"metrics"`
	RunSeconds  []float64        `json:"run_s"` // wall seconds per timed iteration
	RefSeconds  []float64        `json:"ref_s"` // reference kernel seconds around each
	Errors      []string         `json:"errors,omitempty"`
}

func (r *Report) set(name string, v float64) {
	m, ok := metricByName(name)
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	r.Metrics[name] = Value{Value: v, Unit: m.Unit}
}

// fail records a failed timed iteration.
func (r *Report) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// Run executes one benchmark run. It sets up each of the SubSeeds
// configurations (building it and running it once untimed), then runs
// timed iterations round-robin over them for the configured budget, then
// (with Layers) the layer pass on the first configuration. Every
// iteration's invariants are checked and its fingerprint compared with
// its configuration's warm-up. Only set-up failures are returned as
// errors; a failing timed iteration is counted in the report.
func Run(o Options) (*Report, error) {
	w, err := Lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	kernel, err := newRefKernel()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	defer kernel.close()
	sps := make([]*Spec, SubSeeds)
	refs := make([]uint64, SubSeeds)
	setups := make([]float64, SubSeeds)
	for k := range sps {
		t0 := time.Now()
		sp := w.Build(o.Seed*SubSeeds+uint64(k), o.Small)
		out, _, err := sp.iterate()
		if err == nil {
			err = out.check(sp.Base.Rounds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s warm-up at seed %d: %w", w.Name, sp.Base.Seed, err)
		}
		setups[k], _ = kernel.normalise(time.Since(t0).Seconds())
		sps[k], refs[k] = sp, out.fingerprint()
	}

	rep := &Report{
		Manifest:    newManifest(w.Name, o, sps),
		Fingerprint: combine(refs),
		Correct:     true,
		Metrics:     map[string]Value{},
	}
	var (
		rounds             int64
		alloc, mallocs, gc uint64
		norm, rss          []float64 // per iteration: reference seconds, MiB resident at its end
		firstRuns          []float64 // wall seconds of the first configuration's iterations
		ms0, ms1           runtime.MemStats
	)
	start := time.Now()
	for i := 0; i < o.MinIters || time.Since(start).Seconds() < o.Seconds; i++ {
		k := i % SubSeeds
		rep.Attempted++
		// Each iteration starts from a collected heap, so the collections
		// inside it do not depend on where the previous one left off.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		out, d, err := sps[k].iterate()
		runtime.ReadMemStats(&ms1)
		resident := rssMB()
		scaled, ref := kernel.normalise(d.Seconds())
		if err == nil {
			err = out.check(sps[k].Base.Rounds)
		}
		if err == nil {
			if fp := out.fingerprint(); fp != refs[k] {
				err = fmt.Errorf("seed %d: fingerprint %016x differs from its warm-up's %016x", sps[k].Base.Seed, fp, refs[k])
			}
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		rep.RunSeconds = append(rep.RunSeconds, d.Seconds())
		rep.RefSeconds = append(rep.RefSeconds, ref)
		norm = append(norm, scaled)
		rss = append(rss, resident)
		if k == 0 {
			firstRuns = append(firstRuns, d.Seconds())
		}
		rounds += out.rounds
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		mallocs += ms1.Mallocs - ms0.Mallocs
		gc += ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	rep.Manifest.Iterations = rep.Attempted

	var total float64
	for _, s := range norm {
		total += s
	}
	sorted := sortedCopy(norm)
	rep.set("client_rounds_per_s", ratio(float64(rounds), total))
	rep.set("run_s_p50", quantile(sorted, 0.5))
	rep.set("run_s_p75", quantile(sorted, 0.75))
	rep.set("setup_s", median(setups))
	rep.set("rss_mb", median(rss))

	if o.Layers {
		n := float64(len(norm))
		rep.set("runtime.alloc_mb_per_run", ratio(float64(alloc)/(1<<20), n))
		rep.set("runtime.mallocs_per_run", ratio(float64(mallocs), n))
		rep.set("runtime.gc_pause_ms_per_run", ratio(float64(gc)/1e6, n))
		if err := measureLayers(sps[0], median(firstRuns), rep.set); err != nil {
			return nil, fmt.Errorf("%s layer pass: %w", w.Name, err)
		}
	}
	return rep, nil
}

// combine folds per-configuration fingerprints into one.
func combine(fps []uint64) string {
	h := fnv.New64a()
	for _, fp := range fps {
		fmt.Fprintf(h, "%016x", fp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func newManifest(workload string, o Options, sps []*Spec) Manifest {
	hashes := make([]uint64, len(sps))
	for i, sp := range sps {
		hashes[i] = sp.configHash(workload)
	}
	m := Manifest{
		Workload:   workload,
		Seed:       o.Seed,
		ConfigHash: combine(hashes),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seconds:    o.Seconds,
		Layers:     o.Layers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}
