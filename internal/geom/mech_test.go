package geom

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEq compares floats for exact bit equality — the compiled tables
// promise byte-identical results, not merely close ones.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// The load-bearing equivalence test: for both the uniform and the zoned
// drive, the compiled model must reproduce the reference Geometry's
// MediaOp, BlockPos and Cylinder results bit for bit across random
// operations, including multi-track and multi-zone transfers.
func TestMechMatchesGeometry(t *testing.T) {
	geoms := map[string]Geometry{
		"uniform": Ultrastar36Z15(),
		"zoned":   Ultrastar36Z15Zoned(),
	}
	for name, g := range geoms {
		t.Run(name, func(t *testing.T) {
			m := g.Compile()
			if m.Blocks() != g.Blocks() {
				t.Fatalf("Blocks: mech %d, geom %d", m.Blocks(), g.Blocks())
			}
			rng := rand.New(rand.NewSource(1))
			blocks := g.Blocks()
			for i := 0; i < 20000; i++ {
				lba := rng.Int63n(blocks)
				wp, gp := m.BlockPos(lba), g.BlockPos(lba)
				if wp != gp {
					t.Fatalf("BlockPos(%d): mech %+v, geom %+v", lba, wp, gp)
				}
				if c := m.Cylinder(lba); c != gp.Cylinder {
					t.Fatalf("Cylinder(%d) = %d, want %d", lba, c, gp.Cylinder)
				}

				// Random op: bias some starts near track/zone edges via
				// small counts from random positions; large counts cross
				// many tracks (and zones on the zoned drive).
				count := 1 + rng.Intn(96)
				if lba+int64(count) > blocks {
					count = int(blocks - lba)
				}
				fromCyl := rng.Intn(g.Cylinders)
				start := rng.Float64() * 100
				got := m.MediaOp(fromCyl, lba, count, start)
				want := g.MediaOp(fromCyl, lba, count, start)
				if !bitsEq(got.SeekTime, want.SeekTime) ||
					!bitsEq(got.RotWait, want.RotWait) ||
					!bitsEq(got.TransferTime, want.TransferTime) ||
					got.EndCylinder != want.EndCylinder {
					t.Fatalf("MediaOp(%d, %d, %d, %v):\n mech %+v\n geom %+v",
						fromCyl, lba, count, start, got, want)
				}
			}
		})
	}
}

// Seek distances at and around the curve's breakpoints must come out of
// the table exactly as the closed form computes them.
func TestMechSeekTableEdges(t *testing.T) {
	g := Ultrastar36Z15()
	m := g.Compile()
	for _, d := range []int{0, 1, 2, g.Seek.Theta - 1, g.Seek.Theta, g.Seek.Theta + 1, g.Cylinders - 1} {
		if !bitsEq(m.seekTime(d), g.Seek.Time(d)) {
			t.Fatalf("seekTime(%d) = %v, want %v", d, m.seekTime(d), g.Seek.Time(d))
		}
		if !bitsEq(m.seekTime(-d), g.Seek.Time(-d)) {
			t.Fatalf("seekTime(%d) = %v, want %v", -d, m.seekTime(-d), g.Seek.Time(-d))
		}
	}
}

// Compile must hand every caller of an equal geometry the same model —
// the tables are ~90 KB each and thousands of drives are built per
// sweep.
func TestCompileCaches(t *testing.T) {
	a := Ultrastar36Z15().Compile()
	b := Ultrastar36Z15().Compile()
	if a != b {
		t.Fatal("equal geometries compiled to distinct models")
	}
	z := Ultrastar36Z15Zoned().Compile()
	if z == a {
		t.Fatal("distinct geometries shared a model")
	}
	if z2 := Ultrastar36Z15Zoned().Compile(); z2 != z {
		t.Fatal("equal zoned geometries compiled to distinct models")
	}
}

func TestMechOutOfRangePanics(t *testing.T) {
	m := Ultrastar36Z15().Compile()
	for _, fn := range []func(){
		func() { m.BlockPos(-1) },
		func() { m.BlockPos(m.Blocks()) },
		func() { m.Cylinder(m.Blocks()) },
		func() { m.MediaOp(0, m.Blocks(), 1, 0) },
		func() { m.MediaOp(0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMediaOpReference(b *testing.B) {
	g := Ultrastar36Z15()
	for i := 0; i < b.N; i++ {
		g.MediaOp(i%g.Cylinders, int64(i%1000)*32, 32, float64(i)*1e-3)
	}
}

// mediaOpStream is a fixed op stream spread over the whole disk and
// many revolutions, so the benchmark and the alloc guard exercise the
// seek table, the rotational reduction and track switches alike.
type mediaOpStream struct {
	from  []int
	lba   []int64
	count []int
	start []float64
}

func newMediaOpStream(g Geometry, n int) mediaOpStream {
	rng := rand.New(rand.NewSource(3))
	s := mediaOpStream{make([]int, n), make([]int64, n), make([]int, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		s.count[i] = 1 + rng.Intn(64)
		s.from[i] = rng.Intn(g.Cylinders)
		s.lba[i] = rng.Int63n(g.Blocks() - int64(s.count[i]))
		s.start[i] = rng.Float64() * 3600
	}
	return s
}

// sinkAccess keeps benchmarked MediaOp calls from being optimized away.
var sinkAccess Access

// BenchmarkMechMediaOp is the disk-mechanics layer's per-operation
// cost: one compiled MediaOp, 0 allocs/op.
func BenchmarkMechMediaOp(b *testing.B) {
	g := Ultrastar36Z15()
	m := g.Compile()
	ops := newMediaOpStream(g, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 1023
		sinkAccess = m.MediaOp(ops.from[j], ops.lba[j], ops.count[j], ops.start[j])
	}
}

// MediaOp runs once per media access inside the event loop; it must not
// allocate.
func TestMechMediaOpAllocFree(t *testing.T) {
	for _, g := range []Geometry{Ultrastar36Z15(), Ultrastar36Z15Zoned()} {
		m := g.Compile()
		ops := newMediaOpStream(g, 256)
		avg := testing.AllocsPerRun(20, func() {
			for j := range ops.lba {
				m.MediaOp(ops.from[j], ops.lba[j], ops.count[j], ops.start[j])
			}
		})
		if avg > 0 {
			t.Fatalf("MediaOp allocates: %.1f allocs per 256 ops", avg)
		}
	}
}

// reduceRev must be math.Mod(x, 1) bit for bit, or MediaOp would drift
// from the reference Geometry it is held to.
func TestReduceRevMatchesMod(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		got, want := reduceRev(x), math.Mod(x, 1)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("reduceRev(%v) = %v, Mod gives NaN", x, got)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reduceRev(%v [%#016x]) = %v [%#016x], Mod gives %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - math.SmallestNonzeroFloat64,
		0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 2, 3, 7.25,
		0x1p52 - 1, 0x1p52 - 0.5, 0x1p52, 0x1p52 + 1, 0x1p53 - 1, 0x1p53, 0x1p53 + 2,
		1e15 + 0.3, 1e300, math.MaxFloat64,
		math.Inf(1), math.NaN(),
	}
	for _, x := range edges {
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}
