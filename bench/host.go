package bench

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is the reference kernel's time, in seconds, on a host running
// at reference speed. Reported times are wall times scaled by refNominal
// ÷ the kernel's time measured around them. A shared host runs slower
// or faster for minutes at a time (other tenants contending for caches
// and memory, frequency changes); that moves the kernel and the workload
// alike and cancels out of the ratio.
const refNominal = 0.05

// Kernel sizes: about refNominal in total on a 2-CPU shared container at
// its median speed, three quarters of it in the map phase.
const (
	refMapOps   = 500000
	refTableOps = 1500000
	refTableMiB = 32
)

// refKernel is a fixed computation owned by the benchmark, so no change to
// the simulator can change its cost. It mixes what a simulated round does
// — hashing into a map of a few MiB, appending, sorting floats — with
// random updates of a 32 MiB table, which tracks contention for the
// shared cache and memory that the widest workload is sensitive to. The
// table lives outside the Go heap so it does not change the collector's
// pacing; its pages are excluded from the reported resident set.
type refKernel struct {
	m     map[uint64]uint64
	s     []float64
	mem   []byte
	table []uint64
	prev  float64 // the latest kernel time
	sink  uint64
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refTableMiB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &refKernel{
		m:     make(map[uint64]uint64, 1<<16),
		s:     make([]float64, 0, refMapOps/2),
		mem:   mem,
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8),
	}
	for i := range k.table {
		k.table[i] = uint64(i) // fault every page in now
	}
	k.time() // grow the map and the slice
	k.prev = k.time()
	return k, nil
}

// close unmaps the table.
func (k *refKernel) close() error { return syscall.Munmap(k.mem) }

// time runs the kernel once and returns its wall seconds.
func (k *refKernel) time() float64 {
	t0 := time.Now()
	clear(k.m)
	k.s = k.s[:0]
	h := uint64(1)
	for i := 0; i < refMapOps; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		k.m[h>>48] += h
		if i&1 == 0 {
			k.s = append(k.s, float64(h>>11))
		}
	}
	sort.Float64s(k.s)
	mask := uint64(len(k.table) - 1)
	for i := 0; i < refTableOps; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		k.table[(h>>20)&mask] += h
	}
	k.sink += uint64(len(k.m)) + uint64(k.s[0]) + k.table[h&mask]
	return time.Since(t0).Seconds()
}

// normalise converts d wall seconds, measured since the kernel's previous
// run, to reference seconds: it runs the kernel again and scales d by
// refNominal over the mean of the kernel's times just before and just
// after d. It also returns that mean.
func (k *refKernel) normalise(d float64) (scaled, ref float64) {
	now := k.time()
	ref = (k.prev + now) / 2
	k.prev = now
	return d * refNominal / ref, ref
}

// rssMB returns the process's current resident set size in MiB, read from
// /proc/self/statm, less the kernel's table (0 where statm is unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages*float64(os.Getpagesize())/(1<<20) - refTableMiB
}
