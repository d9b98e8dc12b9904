package stl

import (
	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// MaintenanceOp is one background physical I/O a translation layer needs
// the drive to perform — cleaning reads and writes, media-cache merges,
// zone rewrites. Maintenance I/O moves the head like any host I/O, so
// the simulator plays these through the disk model and its seeks count.
type MaintenanceOp struct {
	Kind   disk.OpKind
	Extent geom.Extent // physical sectors
}

// Maintainer is implemented by translation layers that relocate data on
// their own behalf (segment cleaning, media-cache merges): they queue
// background I/O and report the write amplification it causes. After
// each host operation the simulator drains Maintenance and plays the
// operations in order.
type Maintainer interface {
	// Maintenance appends the queued background I/O to dst and clears
	// the queue, keeping the layer's queue buffer for reuse.
	Maintenance(dst []MaintenanceOp) []MaintenanceOp
	// HostSectors returns sectors written by the host; ExtraSectors
	// returns sectors the layer wrote on its own behalf (merges,
	// cleaning). WAF = (Host+Extra)/Host.
	HostSectors() int64
	ExtraSectors() int64
}

// WAF computes a write amplification factor from a Maintainer; a layer
// that has written nothing reports 1.
func WAF(m Maintainer) float64 {
	host := m.HostSectors()
	if host == 0 {
		return 1
	}
	return float64(host+m.ExtraSectors()) / float64(host)
}
