package serve

import (
	"sync/atomic"

	"tlrchol/internal/obs"
)

// Admission is the server's backpressure valve: a fixed number of
// inflight slots acquired without blocking. A request that finds no
// slot is rejected immediately with 429 rather than queued — a
// factorization can run for minutes, so an unbounded queue would turn
// overload into timeout storms. Clients retry after the hinted delay.
type Admission struct {
	slots    chan struct{}
	inflight atomic.Int64

	accepted, rejected *obs.Counter
	gauge              *obs.Gauge
}

// AdmissionStats is the read-only view reported by /v1/stats.
type AdmissionStats struct {
	MaxInflight int    `json:"max_inflight"`
	Inflight    int64  `json:"inflight"`
	Accepted    uint64 `json:"accepted"`
	Rejected    uint64 `json:"rejected"`
}

func (a AdmissionStats) plus(b AdmissionStats) AdmissionStats {
	return AdmissionStats{
		MaxInflight: a.MaxInflight + b.MaxInflight,
		Inflight:    a.Inflight + b.Inflight,
		Accepted:    a.Accepted + b.Accepted,
		Rejected:    a.Rejected + b.Rejected,
	}
}

// NewAdmission returns an admission controller with max concurrent
// slots (≤ 0 means 64).
func NewAdmission(max int, reg *obs.Registry) *Admission {
	if max <= 0 {
		max = 64
	}
	return &Admission{
		slots:    make(chan struct{}, max),
		accepted: reg.Counter("serve.admission.accepted"),
		rejected: reg.Counter("serve.admission.rejected"),
		gauge:    reg.Gauge("serve.admission.inflight"),
	}
}

// TryAcquire claims a slot if one is free. The caller must Release
// exactly once per successful acquire.
func (a *Admission) TryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		a.accepted.Add(0, 1)
		a.gauge.Set(a.inflight.Add(1))
		return true
	default:
		a.rejected.Add(0, 1)
		return false
	}
}

// Release frees a slot claimed by TryAcquire.
func (a *Admission) Release() {
	a.gauge.Set(a.inflight.Add(-1))
	<-a.slots
}

// Stats reports current occupancy and lifetime accept/reject counts.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxInflight: cap(a.slots),
		Inflight:    a.inflight.Load(),
		Accepted:    a.accepted.Value(),
		Rejected:    a.rejected.Value(),
	}
}
