package geom

import (
	"fmt"
	"math"
	"sync"
)

// Mech is a compiled mechanical model of one Geometry: the seek curve
// expanded into a per-distance lookup table, sector angles precomputed
// per track position, zone spans materialized once, and every derived
// constant (revolution time, per-sector transfer time, capacity) hoisted
// out of the per-operation path.
//
// Compiling changes no results: every table entry is produced by the
// exact expression the reference Geometry methods evaluate inline, and
// the remaining arithmetic keeps the reference's operation order, so
// MediaOp and BlockPos are bit-identical to their Geometry counterparts
// (TestMechMatchesGeometry enforces this). The platter-angle reduction
// replaces angleOf's math.Mod(x, 1) with the exact trunc-subtraction of
// reduceRev, which returns the same bits without Mod's software
// frexp/ldexp loop. Only the division by the revolution time before it
// stays as the reference wrote it: multiplying by a precomputed
// reciprocal rounds differently in the last ulp and would break
// byte-identical tables.
//
// A Mech is immutable after construction and safe to share across
// concurrent replay cells; Compile caches one per distinct Geometry.
type Mech struct {
	g Geometry

	seek   []float64 // seek time by |cylinder distance|; Cylinders entries
	blocks int64     // capacity in whole logical blocks
	spb    int64     // sectors per logical block
	rev    float64   // seconds per revolution

	// Uniform-recording fast path (len(g.Zones) == 0).
	spt       int64     // sectors per track
	heads     int64     // tracks per cylinder
	secPerCyl int64     // spt * heads
	perSector float64   // transfer seconds per sector
	angle     []float64 // sector index -> angular position; spt entries

	// Zoned path: spans with absolute offsets and per-zone angle tables.
	spans []mechSpan
}

// mechSpan is one recording zone with precomputed absolute offsets.
type mechSpan struct {
	startCyl    int
	endCyl      int // exclusive
	startSector int64
	endSector   int64 // exclusive
	spt         int64
	angle       []float64 // sector index -> angular position; spt entries
}

// mechCache shares compiled models across disks and replay cells; a
// sweep uses a handful of distinct geometries but builds thousands of
// drives.
var mechCache struct {
	sync.Mutex
	models []*Mech
}

// Compile returns the compiled mechanical model for g, building it on
// first use and caching it for every later drive with the same geometry.
func (g Geometry) Compile() *Mech {
	mechCache.Lock()
	defer mechCache.Unlock()
	for _, m := range mechCache.models {
		if geomEqual(m.g, g) {
			return m
		}
	}
	m := newMech(g)
	mechCache.models = append(mechCache.models, m)
	return m
}

// geomEqual compares geometries field by field (Zones element-wise).
func geomEqual(a, b Geometry) bool {
	if a.SectorSize != b.SectorSize || a.BlockSize != b.BlockSize ||
		a.SectorsPerTrack != b.SectorsPerTrack || a.Heads != b.Heads ||
		a.Cylinders != b.Cylinders || a.RPM != b.RPM || a.Seek != b.Seek ||
		a.TrackSwitch != b.TrackSwitch || a.CylinderSwitch != b.CylinderSwitch ||
		len(a.Zones) != len(b.Zones) {
		return false
	}
	for i := range a.Zones {
		if a.Zones[i] != b.Zones[i] {
			return false
		}
	}
	return true
}

// angleTable tabulates float64(s)/float64(spt) for every sector of a
// track — the exact expression the reference rotational-wait path
// evaluates per operation.
func angleTable(spt int) []float64 {
	t := make([]float64, spt)
	for s := range t {
		t[s] = float64(s) / float64(spt)
	}
	return t
}

// newMech builds the tables. Each entry calls the same Geometry code the
// inline path used, so the values are identical by construction.
func newMech(g Geometry) *Mech {
	m := &Mech{
		g:      g,
		blocks: g.Blocks(),
		spb:    int64(g.SectorsPerBlock()),
		rev:    g.RevTime(),
		spt:    int64(g.SectorsPerTrack),
		heads:  int64(g.Heads),
	}
	m.secPerCyl = m.spt * m.heads
	m.perSector = g.RevTime() / float64(g.SectorsPerTrack)
	m.seek = make([]float64, g.Cylinders)
	for n := range m.seek {
		m.seek[n] = g.Seek.Time(n)
	}
	if len(g.Zones) == 0 {
		m.angle = angleTable(g.SectorsPerTrack)
		return m
	}
	// Zoned: materialize spans once (the reference rebuilds them per
	// operation) and share angle tables between zones with equal SPT.
	angles := make(map[int][]float64)
	cyl := 0
	var sector int64
	for _, z := range g.Zones {
		a, ok := angles[z.SectorsPerTrack]
		if !ok {
			a = angleTable(z.SectorsPerTrack)
			angles[z.SectorsPerTrack] = a
		}
		size := int64(z.Cylinders) * int64(g.Heads) * int64(z.SectorsPerTrack)
		m.spans = append(m.spans, mechSpan{
			startCyl:    cyl,
			endCyl:      cyl + z.Cylinders,
			startSector: sector,
			endSector:   sector + size,
			spt:         int64(z.SectorsPerTrack),
			angle:       a,
		})
		cyl += z.Cylinders
		sector += size
	}
	return m
}

// Geom returns the geometry this model was compiled from.
func (m *Mech) Geom() Geometry { return m.g }

// Blocks reports the drive's capacity in whole logical blocks.
func (m *Mech) Blocks() int64 { return m.blocks }

// seekTime is the tabulated Seek.Time.
func (m *Mech) seekTime(d int) float64 {
	if d < 0 {
		d = -d
	}
	return m.seek[d]
}

// span locates the zone containing an absolute sector index.
func (m *Mech) span(sector int64) *mechSpan {
	for i := range m.spans {
		if sector < m.spans[i].endSector {
			return &m.spans[i]
		}
	}
	panic(fmt.Sprintf("geom: sector %d beyond zoned capacity", sector))
}

// checkRange reproduces BlockPos's bounds panic.
func (m *Mech) checkRange(lba int64) {
	if lba < 0 || lba >= m.blocks {
		panic(fmt.Sprintf("geom: block %d out of range [0,%d)", lba, m.blocks))
	}
}

// BlockPos maps a logical block address to its physical position —
// Geometry.BlockPos without the per-call capacity recomputation (and,
// for zoned drives, without rebuilding the zone spans).
func (m *Mech) BlockPos(lba int64) Pos {
	m.checkRange(lba)
	sector := lba * m.spb
	if m.spans != nil {
		p, _ := m.zonedPos(sector)
		return p
	}
	track := sector / m.spt
	return Pos{
		Cylinder: int(track / m.heads),
		Head:     int(track % m.heads),
		Sector:   int(sector % m.spt),
	}
}

// Cylinder reports just the cylinder of a block — the scheduler's
// queueing key — in one division on the uniform path.
func (m *Mech) Cylinder(lba int64) int {
	m.checkRange(lba)
	sector := lba * m.spb
	if m.spans != nil {
		s := m.span(sector)
		return s.startCyl + int((sector-s.startSector)/(s.spt*m.heads))
	}
	return int(sector / m.secPerCyl)
}

// zonedPos is zonedPosOf over the precomputed spans.
func (m *Mech) zonedPos(sector int64) (Pos, *mechSpan) {
	s := m.span(sector)
	rel := sector - s.startSector
	track := rel / s.spt
	return Pos{
		Cylinder: s.startCyl + int(track/m.heads),
		Head:     int(track % m.heads),
		Sector:   int(rel % s.spt),
	}, s
}

// MediaOp computes the detailed cost of reading or writing count
// consecutive logical blocks starting at lba, beginning at absolute time
// start with the head parked on fromCyl. It is Geometry.MediaOp with the
// seek curve, sector angles, zone spans and derived constants read from
// the compiled tables; the arithmetic runs in the reference's operation
// order, so the returned Access is bit-identical.
func (m *Mech) MediaOp(fromCyl int, lba int64, count int, start float64) Access {
	if count <= 0 {
		panic(fmt.Sprintf("geom: media op of %d blocks", count))
	}
	m.checkRange(lba)
	startSector := lba * m.spb
	sectors := count * int(m.spb)

	var p Pos
	var zone *mechSpan
	angle := m.angle
	if m.spans != nil {
		p, zone = m.zonedPos(startSector)
		angle = zone.angle
	} else {
		track := startSector / m.spt
		p = Pos{
			Cylinder: int(track / m.heads),
			Head:     int(track % m.heads),
			Sector:   int(startSector % m.spt),
		}
	}
	acc := Access{EndCylinder: p.Cylinder}
	acc.SeekTime = m.seekTime(p.Cylinder - fromCyl)

	// Rotational wait: the platter angle when the seek settles versus
	// the tabulated angle of the first target sector. The angle-of-time
	// reduction keeps the reference's division and reduces exactly by
	// truncation (see the type comment).
	frac := reduceRev((start + acc.SeekTime) / m.rev)
	if frac < 0 {
		frac += 1.0
	}
	wait := angle[p.Sector] - frac
	if wait < 0 {
		wait += 1.0
	}
	acc.RotWait = wait * m.rev

	if m.spans != nil {
		xfer, endCyl := m.zonedTransfer(startSector, sectors)
		acc.TransferTime = xfer
		acc.EndCylinder = endCyl
		return acc
	}
	acc.TransferTime = float64(sectors) * m.perSector

	// Track/cylinder switches: same additions in the same order as the
	// reference loop, with the per-track modulo replaced by a counter.
	endSector := startSector + int64(sectors) - 1
	firstTrack := startSector / m.spt
	lastTrack := endSector / m.spt
	if firstTrack != lastTrack {
		rem := (firstTrack + 1) % m.heads
		for tr := firstTrack; tr < lastTrack; tr++ {
			if rem == 0 {
				acc.TransferTime += m.g.CylinderSwitch
			} else {
				acc.TransferTime += m.g.TrackSwitch
			}
			rem++
			if rem == m.heads {
				rem = 0
			}
		}
	}
	acc.EndCylinder = int(lastTrack / m.heads)
	return acc
}

// reduceRev returns math.Mod(x, 1) bit for bit: the fractional part of
// x with x's sign. The subtraction is exact for every finite x — for
// |x| >= 1 by Sterbenz's lemma (Trunc(x) lies within a factor of two of
// x), and below that Trunc(x) is ±0 — and so is Mod, so the two agree
// except in the sign of a zero result, which Copysign restores (Mod(-3,
// 1) is -0 where -3 - Trunc(-3) is +0). ±Inf and NaN give NaN, as Mod
// does.
func reduceRev(x float64) float64 {
	return math.Copysign(x-math.Trunc(x), x)
}

// zonedTransfer is Geometry.zonedTransfer over the precomputed spans:
// identical per-track arithmetic, but the zone holding the head is
// tracked by a monotone cursor instead of rescanning the table from the
// top for every track and crossing.
func (m *Mech) zonedTransfer(startSector int64, sectors int) (float64, int) {
	var total float64
	pos := startSector
	remaining := sectors
	zi := 0
	for pos >= m.spans[zi].endSector {
		zi++
	}
	for remaining > 0 {
		for pos >= m.spans[zi].endSector {
			zi++
		}
		s := &m.spans[zi]
		rel := pos - s.startSector
		trackStart := s.startSector + (rel/s.spt)*s.spt
		n := int(trackStart + s.spt - pos)
		if n > remaining {
			n = remaining
		}
		total += float64(n) * m.rev / float64(s.spt)
		pos += int64(n)
		remaining -= n
		if remaining > 0 {
			// Crossing to the next track: head or cylinder switch.
			zj := zi
			for pos >= m.spans[zj].endSector {
				zj++
			}
			ns := &m.spans[zj]
			if ((pos-ns.startSector)/ns.spt)%m.heads == 0 {
				total += m.g.CylinderSwitch
			} else {
				total += m.g.TrackSwitch
			}
		}
	}
	s := &m.spans[zi] // the last sector written lies in the cursor's zone
	endRel := (pos - 1) - s.startSector
	endCyl := s.startCyl + int(endRel/s.spt/m.heads)
	return total, endCyl
}
