package multiclient

import (
	"errors"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// Regression tests for the validatecfg sweep: the sweep engine must
// reject an invalid base config on entry, whatever the axes, before any
// task is built or dispatched, rather than letting the error surface from
// a worker deep inside the parallel sweep (or, worse, letting a partially
// valid config produce NaN-tainted points).
func TestSweepsValidateBaseConfig(t *testing.T) {
	bad := testConfig()
	bad.MeanViewing = -1 // invalid: Validate requires MeanViewing > 0

	clients, err := ClientsAxis([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, axes := range [][]Axis{
		{clients},
		{DisciplineAxis([]schedsrv.Kind{schedsrv.KindFIFO})},
		{ControllerAxis([]adaptive.Kind{adaptive.KindStatic})},
		{PredictorAxis([]predict.Kind{predict.KindOracle})},
		{ControllerAxis([]adaptive.Kind{adaptive.KindStatic}), PredictorAxis([]predict.Kind{predict.KindOracle})},
	} {
		for _, baseline := range []bool{false, true} {
			if _, err := Sweep(bad, 1, 0, baseline, axes...); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Sweep(%s, baseline=%t): err = %v, want ErrBadConfig", axes[0].Name, baseline, err)
			}
		}
	}
}
