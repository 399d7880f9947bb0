// Package checkpoint defines the checkpoint taxonomy and cost model of
// the paper.
//
// Three checkpoint kinds exist (paper §1):
//
//   - SCP  (store checkpoint):   replicas store their state, no compare.
//   - CCP  (compare checkpoint): replicas compare states, no store.
//   - CSCP (compare-and-store):  both operations at the same point.
//
// Costs are expressed in wall-clock time at the minimum speed: ts to
// store, tcp to compare, tr to roll back. A CSCP costs ts + tcp; the
// paper's scalar "checkpoint overhead" C (and cycle count c) refers to
// the CSCP cost. When the processor runs at speed f, a checkpoint of c
// cycles takes C = c/f wall time.
package checkpoint

import (
	"fmt"
	"math"
)

// Kind enumerates checkpoint flavours.
type Kind int

const (
	// SCP stores replica states without comparing them.
	SCP Kind = iota
	// CCP compares replica states without storing them.
	CCP
	// CSCP compares and stores: the full checkpoint.
	CSCP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SCP:
		return "SCP"
	case CCP:
		return "CCP"
	case CSCP:
		return "CSCP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Costs is the checkpoint cost model, in minimum-speed cycles (equal to
// wall time at f = 1).
type Costs struct {
	// Store is ts, the time to store both replicas' states.
	Store float64
	// Compare is tcp, the time to compare the replicas' states.
	Compare float64
	// Rollback is tr, the time to restore a consistent state. The
	// paper's experiments use tr = 0 for comparability with DATE'03.
	Rollback float64
}

// Validate rejects negative or non-finite costs.
func (c Costs) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"store", c.Store}, {"compare", c.Compare}, {"rollback", c.Rollback}} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("checkpoint: %s cost %v is invalid", v.name, v.val)
		}
	}
	if c.Store+c.Compare <= 0 {
		return fmt.Errorf("checkpoint: CSCP cost ts+tcp must be positive, got %v", c.Store+c.Compare)
	}
	return nil
}

// Of returns the time one checkpoint of the given kind costs at speed 1.
func (c Costs) Of(k Kind) float64 {
	switch k {
	case SCP:
		return c.Store
	case CCP:
		return c.Compare
	case CSCP:
		return c.Store + c.Compare
	default:
		panic(fmt.Sprintf("checkpoint: unknown kind %d", int(k)))
	}
}

// CSCPCycles returns c = ts + tcp, the cycle count of a full checkpoint.
func (c Costs) CSCPCycles() float64 { return c.Store + c.Compare }

// AtSpeed returns the wall-clock duration of a checkpoint of kind k when
// the processor runs at speed f (cycles divided by frequency).
func (c Costs) AtSpeed(k Kind, f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("checkpoint: non-positive speed %v", f))
	}
	return c.Of(k) / f
}

// Scaled returns the cost model as wall-clock durations when the
// processor runs at speed f: every cost divided by f. Used to feed the
// renewal models with speed-adjusted parameters under DVS.
func (c Costs) Scaled(f float64) Costs {
	if f <= 0 {
		panic(fmt.Sprintf("checkpoint: non-positive speed %v", f))
	}
	return Costs{Store: c.Store / f, Compare: c.Compare / f, Rollback: c.Rollback / f}
}

// SCPSetting returns the cost model of the paper's §4.1 experiments:
// comparison dominates (ts = 2, tcp = 20, c = 22), the regime where
// adding cheap SCPs between CSCPs pays off.
func SCPSetting() Costs { return Costs{Store: 2, Compare: 20, Rollback: 0} }

// CCPSetting returns the cost model of the paper's §4.2 experiments:
// storage dominates (ts = 20, tcp = 2, c = 22), the regime where adding
// cheap CCPs between CSCPs pays off.
func CCPSetting() Costs { return Costs{Store: 20, Compare: 2, Rollback: 0} }
