package fleet

import (
	"fmt"
	"strconv"

	"prefetch/internal/multiclient"
	"prefetch/internal/sweep"
)

// Axis is one swept dimension of a fleet configuration, and AxisValue
// one labelled setting on it — the same generic grid machinery the
// single-server sweeps run on (internal/sweep.Grid).
type (
	Axis      = sweep.Axis[Config]
	AxisValue = sweep.AxisValue[Config]
)

// RouterAxis sweeps the routing policy.
func RouterAxis(kinds []Kind) Axis {
	ax := Axis{Name: "router"}
	for _, k := range kinds {
		k := k
		ax.Values = append(ax.Values, AxisValue{
			Label: string(k),
			Apply: func(c *Config) { c.Router = k },
		})
	}
	return ax
}

// ReplicasAxis sweeps the fleet size.
func ReplicasAxis(ns []int) (Axis, error) {
	ax := Axis{Name: "replicas"}
	for _, n := range ns {
		if n < 1 {
			return Axis{}, fmt.Errorf("%w: %d replicas in sweep axis", ErrBadConfig, n)
		}
		n := n
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.Itoa(n),
			Apply: func(c *Config) { c.Replicas = n },
		})
	}
	return ax, nil
}

// FailEveryAxis sweeps the failure rate (mean time between failures;
// 0 disables injection).
func FailEveryAxis(means []float64) (Axis, error) {
	ax := Axis{Name: "fail-every"}
	for _, m := range means {
		if !finiteNonNeg(m) {
			return Axis{}, fmt.Errorf("%w: fail-every %v in sweep axis", ErrBadConfig, m)
		}
		m := m
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.FormatFloat(m, 'g', -1, 64),
			Apply: func(c *Config) { c.FailEvery = m },
		})
	}
	return ax, nil
}

// Point is one cell of a fleet sweep: the multiclient sweep cell,
// folded from the same Result.
type Point = multiclient.Point

// Sweep runs the cross product of axes over the base config, reps
// replications per cell (rep r runs at Seed+r), on up to workers
// goroutines. Cells come back row-major — first axis slowest — and are
// deterministic regardless of worker count. The headline experiment is
// router × replicas: Sweep(cfg, reps, workers, RouterAxis(kinds),
// ReplicasAxis(ns)) keeps each router's scaling curve contiguous.
func Sweep(cfg Config, reps, workers int, axes ...Axis) ([]Point, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("%w: %d replications", ErrBadConfig, reps)
	}
	cells, err := sweep.Grid(cfg, axes, reps, workers,
		func(c Config) error { return c.Validate() },
		func(c Config, rep int) (Result, error) {
			c.Base.Seed = cfg.Base.Seed + uint64(rep)
			return Run(c)
		})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(cells))
	for i, cell := range cells {
		p := &points[i]
		p.Labels, p.Clients, p.Reps = cell.Labels, cell.Config.Base.Clients, reps
		for r := range cell.Results {
			p.Add(&cell.Results[r])
		}
	}
	return points, nil
}
