package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunPreservesOrder(t *testing.T) {
	params := make([]int, 100)
	for i := range params {
		params[i] = i
	}
	results, err := Run(params, 8, func(p int) (int, error) { return p * p, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*i)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	results, err := Run(nil, 4, func(p int) (int, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatal("non-empty results for empty params")
	}
}

func TestRunFirstErrorByInputOrder(t *testing.T) {
	params := []int{0, 1, 2, 3, 4, 5}
	_, err := Run(params, 3, func(p int) (int, error) {
		if p == 4 || p == 2 {
			return 0, fmt.Errorf("boom %d", p)
		}
		return p, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := err.Error(); got != "sweep: task 2: boom 2" {
		t.Fatalf("err = %q, want first failing input", got)
	}
}

func TestRunAllTasksExecuteDespiteError(t *testing.T) {
	var ran atomic.Int64
	params := make([]int, 50)
	_, err := Run(params, 4, func(int) (int, error) {
		ran.Add(1)
		return 0, errors.New("always")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 50 {
		t.Fatalf("%d tasks ran, want 50", ran.Load())
	}
}

func TestRunRecoversPanicWithTaskIndex(t *testing.T) {
	params := []int{0, 1, 2, 3, 4, 5}
	results, err := Run(params, 3, func(p int) (int, error) {
		if p == 3 {
			panic(fmt.Sprintf("bad parameter %d", p))
		}
		return p * 10, nil
	})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if got, want := err.Error(), "sweep: task 3: task panicked: bad parameter 3"; got != want {
		t.Fatalf("err = %q, want %q", got, want)
	}
	// The surviving tasks still completed into the partial results.
	for _, i := range []int{0, 1, 2, 4, 5} {
		if results[i] != i*10 {
			t.Errorf("result[%d] = %d, want %d", i, results[i], i*10)
		}
	}
}

func TestRunPanicKeepsFirstErrorByInputOrder(t *testing.T) {
	params := []int{0, 1, 2, 3}
	_, err := Run(params, 2, func(p int) (int, error) {
		switch p {
		case 1:
			return 0, errors.New("plain error")
		case 3:
			panic("later panic")
		}
		return p, nil
	})
	if err == nil || err.Error() != "sweep: task 1: plain error" {
		t.Fatalf("err = %v, want the first failure by input order", err)
	}
	if errors.Is(err, ErrPanic) {
		t.Fatal("plain error misreported as panic")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run([]int{1}, -1, func(p int) (int, error) { return p, nil }); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Run[int, int]([]int{1}, 1, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestRunActuallyParallel(t *testing.T) {
	// With k workers, k tasks that each wait for the others would deadlock
	// if run sequentially; rendezvous via a channel proves concurrency.
	const k = 4
	gate := make(chan struct{}, k)
	params := make([]int, k)
	_, err := Run(params, k, func(int) (int, error) {
		gate <- struct{}{}
		for len(gate) < k { // wait until all workers arrive
			runtime.Gosched()
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapMatchesSequential(t *testing.T) {
	f := func(xs []int8) bool {
		params := make([]int, len(xs))
		for i, x := range xs {
			params[i] = int(x)
		}
		got, err := Map(params, func(p int) (int, error) { return 3*p + 1, nil })
		if err != nil {
			return false
		}
		for i, p := range params {
			if got[i] != 3*p+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunOverhead(b *testing.B) {
	params := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(params, 0, func(p int) (int, error) { return p, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
