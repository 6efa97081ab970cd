package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on a share of a larger machine whose speed drifts
// with the load of the other tenants: its share of the CPU (steal),
// clock frequency and sibling-thread contention change from minute to
// minute, and the same pass can take twice as long in one run as in
// another. Medians inside one run do not take that out, because the
// slow stretches outlast a run. So every host timing metric is
// reported in reference seconds: the time measured, multiplied by the
// host's speed at the time. A short calibration block runs before the
// first set-up and after every set-up and untraced pass; the speed of a
// set-up or pass is a fixed kernel's reference duration over its
// measured duration in the two blocks that bracket it. A change to the
// program moves the timed work and not the kernel, so it moves the
// reported time by its full factor; a host that runs everything at
// two-thirds speed slows both and leaves it in place. The raw wall
// times and the speeds are printed beside the reported values.

// kernelRef is the calibration kernel's duration on an undisturbed
// 2-CPU Xeon VM, the host the benchmark was built on. It fixes the
// unit of the reported times: at speed 1 they are that host's seconds.
const kernelRef = 700 * time.Microsecond

// kernelReps is how many kernel runs one calibration block makes.
const kernelReps = 50

// kernelSteps is the kernel's length in dependent steps.
const kernelSteps = 80_000

// ring is a random cyclic permutation of 8192 slots (32 KB) the kernel
// chases, so each step's load depends on the one before and stays in
// the core's first-level cache: a measured slowdown is the core's, not
// memory's. Of the sizes tried, 32 KB to 256 KB tracked the simulator's
// slow stretches best; rings of 4 MB and more, served from the shared
// cache and memory, hardly tracked them at all.
var ring = func() []uint32 {
	const n = 1 << 13
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	r := make([]uint32, n)
	for i := range perm {
		r[perm[i]] = perm[(i+1)%n]
	}
	return r
}()

// kernelSink keeps the kernel's result live.
var kernelSink atomic.Uint64

// kernel is a fixed mix of dependent loads, integer arithmetic and
// data-dependent branches, the instruction mix of an event loop over
// cache-resident state. It allocates nothing, and it uses no Go map:
// a map's hash seed is drawn per process, and the same lookups into a
// 64K-key map took from 0.13 to 0.32 ms depending on it.
func kernel() {
	p, x, taken := uint32(0), uint64(1), uint64(0)
	for i := 0; i < kernelSteps; i++ {
		p = ring[p]
		x = x*6364136223846793005 + uint64(p)
		if x>>63 != 0 {
			taken++
			p ^= uint32(x>>40) & 1
		}
	}
	kernelSink.Add(x + taken + uint64(p))
}

// block is one calibration block: the kernel's reference duration for
// one thread's share of the block, the wall time a thread took for it
// (the mean over the block's threads), and the process CPU time all
// its threads took.
type block struct {
	ref, wall, cpu time.Duration
	threads        int
}

// speedometer records a run's calibration blocks. Wall and CPU time
// are summed over a block's kernel runs, not reduced to a median: a
// pass feels every preemption and slow stretch in proportion to its
// length, and so must the kernel. threads is how many kernels a block
// runs at once: as many as the workload keeps busy, since two busy
// CPUs of a shared host can each run slower than one. The threads'
// wall times are averaged, not maxed: the fleet steals cells from a
// slow daemon, so a pass runs at the two CPUs' mean speed.
type speedometer struct {
	threads int
	blocks  []block
}

// sample runs one calibration block.
func (s *speedometer) sample() {
	n := max(s.threads, 1)
	walls := make([]time.Duration, n)
	var wg sync.WaitGroup
	c0 := processCPU()
	for t := range walls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < kernelReps; i++ {
				kernel()
			}
			walls[t] = time.Since(t0)
		}()
	}
	wg.Wait()
	var wall time.Duration
	for _, w := range walls {
		wall += w
	}
	s.blocks = append(s.blocks, block{
		ref:     kernelReps * kernelRef,
		wall:    wall / time.Duration(n),
		cpu:     processCPU() - c0,
		threads: n,
	})
}

// speeds returns the host's wall-time and CPU-time speed over the
// blocks [from, to): above 1 the host ran faster than the reference,
// below 1 slower. The two differ when the host withholds the CPU
// (steal), which stretches wall time but not CPU time.
func (s *speedometer) speeds(from, to int) (wall, cpu float64) {
	var ref, wallSum, cpuRef, cpuSum time.Duration
	for _, b := range s.blocks[from:to] {
		ref += b.ref
		wallSum += b.wall
		cpuRef += b.ref * time.Duration(b.threads)
		cpuSum += b.cpu
	}
	return ref.Seconds() / wallSum.Seconds(), cpuRef.Seconds() / cpuSum.Seconds()
}

// around is the speed of the i-th timed stretch of a run, from the two
// blocks that bracket it.
func (s *speedometer) around(i int) (wall, cpu float64) { return s.speeds(i, i+2) }
