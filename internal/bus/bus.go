// Package bus models the host-side I/O interconnect: a single Ultra160
// SCSI bus shared by every disk in the array (the paper attaches all
// eight drives to one Ultra160 card). Transfers between controller
// caches and host memory contend here in FIFO order.
package bus

import (
	"diskthru/internal/sim"
)

// Config describes an interconnect.
type Config struct {
	// BytesPerSecond is the peak transfer rate (Ultra160 = 160 MB/s).
	BytesPerSecond float64
	// CommandOverhead is the fixed per-transfer cost: command issue,
	// arbitration, disconnect/reconnect.
	CommandOverhead float64
}

// Ultra160 returns the paper's interconnect: 160 MB/s with a small fixed
// per-command overhead.
func Ultra160() Config {
	return Config{BytesPerSecond: 160e6, CommandOverhead: 0.0001}
}

// Bus is a shared FIFO interconnect bound to a simulator.
type Bus struct {
	cfg Config
	res *sim.Resource

	// Bytes accumulates total payload moved, for utilization reports.
	Bytes uint64
}

// New returns an idle bus.
func New(s *sim.Simulator, cfg Config) *Bus {
	if cfg.BytesPerSecond <= 0 {
		panic("bus: non-positive bandwidth")
	}
	if cfg.CommandOverhead < 0 {
		panic("bus: negative command overhead")
	}
	return &Bus{cfg: cfg, res: sim.NewResource(s, "bus")}
}

// Transfer moves bytes across the bus and fires done on completion.
// Zero-byte transfers still pay the command overhead.
func (b *Bus) Transfer(bytes int, done sim.Event) {
	if bytes < 0 {
		panic("bus: negative transfer size")
	}
	b.Bytes += uint64(bytes)
	dur := b.cfg.CommandOverhead + float64(bytes)/b.cfg.BytesPerSecond
	b.res.Acquire(dur, done)
}

// Utilization reports the fraction of virtual time the bus has been busy.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// BusySeconds reports the total virtual time spent transferring. Unlike
// Utilization it does not depend on the current clock, so reports built
// from it are unaffected by idle events (telemetry sampling ticks,
// background syncs) that run after the workload's last completion.
func (b *Bus) BusySeconds() float64 { return b.res.Busy }

// Transfers reports completed transfer count.
func (b *Bus) Transfers() uint64 { return b.res.Served }
