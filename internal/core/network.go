// Package core couples the SSM simulator with the movement-signal
// protocols into a message-passing network, and implements the paper's
// fault-tolerance motivation: movement signalling as a backup channel
// for robots whose ordinary (wireless) communication devices fail.
package core

import (
	"errors"
	"fmt"

	"waggle/internal/obs"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// ErrNotDelivered is returned when a run ends before the awaited
// messages arrive.
var ErrNotDelivered = errors.New("core: messages not delivered within the step budget")

// BudgetError reports a negative step or delivery budget passed to a
// RunUntil* call. (A zero budget is legal: it means "check without
// stepping" — see RunUntilDelivered.) It unwraps to ErrInvalidBudget.
type BudgetError struct {
	// Op is the rejected call, e.g. "RunUntilDelivered".
	Op string
	// Param names the offending parameter ("count" or "maxSteps").
	Param string
	// Value is the rejected budget.
	Value int
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s: negative %s budget %d", e.Op, e.Param, e.Value)
}

// Unwrap lets errors.Is(err, ErrInvalidBudget) match any BudgetError.
func (e *BudgetError) Unwrap() error { return ErrInvalidBudget }

// ErrInvalidBudget is the sentinel every BudgetError unwraps to.
var ErrInvalidBudget = errors.New("core: invalid budget")

// CursorError reports a consumption cursor inconsistent with the
// delivered log — reachable only through a corrupted or mismatched
// checkpoint restore, never through normal operation. It unwraps to
// ErrCorruptCursor.
type CursorError struct {
	// Consumed is the cursor position, Delivered the log length, and
	// Count the requested window that overran it.
	Consumed, Delivered, Count int
}

// Error implements error.
func (e *CursorError) Error() string {
	return fmt.Sprintf("core: consumption cursor %d + count %d exceeds delivered log of %d (corrupt restore?)",
		e.Consumed, e.Count, e.Delivered)
}

// Unwrap lets errors.Is(err, ErrCorruptCursor) match any CursorError.
func (e *CursorError) Unwrap() error { return ErrCorruptCursor }

// ErrCorruptCursor is the sentinel every CursorError unwraps to.
var ErrCorruptCursor = errors.New("core: corrupt consumption cursor")

// Network is a swarm wired for explicit communication: a world whose
// robots execute a movement-signal protocol, the per-robot endpoints,
// and the activation scheduler. It is the engine behind the public
// waggle.Swarm API.
type Network struct {
	world     *sim.World
	scheduler sim.Scheduler
	endpoints []*protocol.Endpoint

	delivered []protocol.Received
	// consumed is the cursor separating deliveries already handed out by
	// a RunUntil* call from those still pending. Without it, a call that
	// awaited `count` messages while more landed in the same final step
	// would strand the surplus: the next call's window used to start at
	// len(delivered), silently skipping them.
	consumed int
	// collectedTime is the world instant the last endpoint sweep ran at.
	// Endpoints only accumulate receptions inside World.Step (protocol
	// robots deliver during their own activation), so a second sweep at
	// the same instant cannot find anything new — skipping it makes
	// Delivered/DeliveredSince O(new deliveries) between steps instead of
	// O(n), which the delta checkpoint path leans on at large n.
	collectedTime int

	// obs is the optional observability hook: send/delivery counters
	// and trace events. Nil means disabled.
	obs *obs.Observer
}

// NewNetwork assembles a network. The endpoints must be the ones
// driving the world's behaviors.
func NewNetwork(world *sim.World, scheduler sim.Scheduler, endpoints []*protocol.Endpoint) (*Network, error) {
	if world == nil {
		return nil, errors.New("core: nil world")
	}
	if scheduler == nil {
		return nil, errors.New("core: nil scheduler")
	}
	if world.N() != len(endpoints) {
		return nil, fmt.Errorf("core: %d endpoints for %d robots", len(endpoints), world.N())
	}
	return &Network{world: world, scheduler: scheduler, endpoints: endpoints, collectedTime: -1}, nil
}

// World exposes the underlying simulation.
func (n *Network) World() *sim.World { return n.world }

// SetObserver attaches (or, with nil, detaches) the observability hook
// for the network's own counters. The world's hook is attached
// separately (sim.World.SetObserver); waggle.NewSwarm wires both to the
// same observer.
func (n *Network) SetObserver(o *obs.Observer) { n.obs = o }

// Observer returns the attached observer, or nil.
func (n *Network) Observer() *obs.Observer { return n.obs }

// Endpoint returns robot i's endpoint.
func (n *Network) Endpoint(i int) *protocol.Endpoint { return n.endpoints[i] }

// Send queues a message from one robot to another.
func (n *Network) Send(from, to int, payload []byte) error {
	if from < 0 || from >= len(n.endpoints) {
		return fmt.Errorf("core: sender %d out of range", from)
	}
	if err := n.endpoints[from].Send(to, payload); err != nil {
		return err
	}
	if o := n.obs; o != nil {
		o.Net.Sends.Inc()
		o.Record(obs.Event{T: n.world.Time(), Kind: obs.EvSend, Robot: from, Peer: to, Val: float64(len(payload))})
	}
	return nil
}

// Broadcast queues a message from one robot to every other robot as
// n-1 unicasts.
func (n *Network) Broadcast(from int, payload []byte) error {
	if from < 0 || from >= len(n.endpoints) {
		return fmt.Errorf("core: sender %d out of range", from)
	}
	if err := n.endpoints[from].Broadcast(payload); err != nil {
		return err
	}
	if o := n.obs; o != nil {
		o.Net.Sends.Add(int64(len(n.endpoints) - 1))
		for to := range n.endpoints {
			if to != from {
				o.Record(obs.Event{T: n.world.Time(), Kind: obs.EvSend, Robot: from, Peer: to, Val: float64(len(payload))})
			}
		}
	}
	return nil
}

// SendAll queues one single-transmission broadcast (§1's efficient
// one-to-all).
func (n *Network) SendAll(from int, payload []byte) error {
	if from < 0 || from >= len(n.endpoints) {
		return fmt.Errorf("core: sender %d out of range", from)
	}
	if err := n.endpoints[from].SendAll(payload); err != nil {
		return err
	}
	if o := n.obs; o != nil {
		// One transmission regardless of swarm size: count it once;
		// Peer -1 marks the all-recipients address.
		o.Net.Sends.Inc()
		o.Record(obs.Event{T: n.world.Time(), Kind: obs.EvSend, Robot: from, Peer: -1, Val: float64(len(payload))})
	}
	return nil
}

// Step advances the simulation one instant and collects any deliveries.
func (n *Network) Step() error {
	if _, err := n.world.Step(n.scheduler); err != nil {
		return err
	}
	n.collect()
	return nil
}

// RunUntilDelivered advances the simulation until `count` messages are
// available past the consumption cursor, or the step budget runs out.
// It returns the deliveries — oldest unconsumed first, including any
// that arrived before this call but were never returned (e.g. surplus
// messages that landed in the same step a previous call stopped at) —
// and the number of instants executed.
//
// A zero maxSteps is legal and means "check without stepping": already
// collected, unconsumed deliveries satisfy the call, otherwise it fails
// with ErrNotDelivered after zero instants. In particular
// RunUntilDelivered(0, maxSteps) always succeeds immediately with an
// empty batch and zero instants executed. Negative budgets are rejected
// with a *BudgetError.
func (n *Network) RunUntilDelivered(count, maxSteps int) ([]protocol.Received, int, error) {
	if count < 0 {
		return nil, 0, &BudgetError{Op: "RunUntilDelivered", Param: "count", Value: count}
	}
	if maxSteps < 0 {
		return nil, 0, &BudgetError{Op: "RunUntilDelivered", Param: "maxSteps", Value: maxSteps}
	}
	n.collect()
	for step := 0; step < maxSteps; step++ {
		if len(n.delivered)-n.consumed >= count {
			out, err := n.consume(count)
			return out, step, err
		}
		if err := n.Step(); err != nil {
			return nil, step, err
		}
	}
	if len(n.delivered)-n.consumed >= count {
		out, err := n.consume(count)
		return out, maxSteps, err
	}
	return nil, maxSteps, fmt.Errorf("%w: %d of %d after %d steps",
		ErrNotDelivered, len(n.delivered)-n.consumed, count, maxSteps)
}

// RunUntilQuiet advances the simulation until every endpoint is idle
// (nothing queued or in flight), bounded by maxSteps. It returns every
// message not yet handed out by a previous RunUntil* call — deliveries
// collected before the run started included — plus those delivered
// during the run.
//
// A zero maxSteps means "check without stepping", mirroring
// RunUntilDelivered; a negative budget is rejected with a *BudgetError.
func (n *Network) RunUntilQuiet(maxSteps int) ([]protocol.Received, int, error) {
	if maxSteps < 0 {
		return nil, 0, &BudgetError{Op: "RunUntilQuiet", Param: "maxSteps", Value: maxSteps}
	}
	n.collect()
	for step := 0; step < maxSteps; step++ {
		if n.allIdle() {
			out, err := n.consume(len(n.delivered) - n.consumed)
			return out, step, err
		}
		if err := n.Step(); err != nil {
			return nil, step, err
		}
	}
	if n.allIdle() {
		out, err := n.consume(len(n.delivered) - n.consumed)
		return out, maxSteps, err
	}
	return nil, maxSteps, fmt.Errorf("%w: endpoints still busy after %d steps", ErrNotDelivered, maxSteps)
}

// consume hands out the next `count` deliveries past the cursor and
// advances it. A cursor window outside the delivered log — possible
// only through corrupted state — is reported as a *CursorError instead
// of a slice-bounds panic.
func (n *Network) consume(count int) ([]protocol.Received, error) {
	if n.consumed < 0 || count < 0 || n.consumed+count > len(n.delivered) {
		return nil, &CursorError{Consumed: n.consumed, Delivered: len(n.delivered), Count: count}
	}
	out := make([]protocol.Received, count)
	copy(out, n.delivered[n.consumed:n.consumed+count])
	n.consumed += count
	return out, nil
}

// Delivered returns every message delivered so far, in order.
func (n *Network) Delivered() []protocol.Received {
	n.collect()
	return append([]protocol.Received(nil), n.delivered...)
}

// DeliveredSince returns a copy of the deliveries recorded after the
// first `from` ones, without moving the consumption cursor — an
// observation window for watchers (the self-healing messenger's
// implicit-acknowledgement scan) that must not steal deliveries from
// the application's RunUntil* calls.
func (n *Network) DeliveredSince(from int) []protocol.Received {
	n.collect()
	if from < 0 {
		from = 0
	}
	if from >= len(n.delivered) {
		return nil
	}
	return append([]protocol.Received(nil), n.delivered[from:]...)
}

// CollectedSince returns a copy of the already-collected deliveries
// past the first `from` ones, WITHOUT sweeping the endpoints. Unlike
// DeliveredSince it is safe to call from inside a World.Step hook (the
// movement-stream tap): a sweep there would harvest the step's fresh
// receptions before the post-step collect and stamp their trace events
// one instant early. The cost is that a stream sees each delivery one
// step after the reception, deterministically.
func (n *Network) CollectedSince(from int) []protocol.Received {
	if from < 0 {
		from = 0
	}
	if from >= len(n.delivered) {
		return nil
	}
	return append([]protocol.Received(nil), n.delivered[from:]...)
}

// CollectedCount reports how many deliveries have been collected so
// far, without sweeping the endpoints.
func (n *Network) CollectedCount() int { return len(n.delivered) }

// Scheduler exposes the activation scheduler driving the network's
// steps, for checkpoint capture of its stream state.
func (n *Network) Scheduler() sim.Scheduler { return n.scheduler }

// Consumed returns the consumption cursor: how many delivered messages
// RunUntil* calls have already handed out.
func (n *Network) Consumed() int { return n.consumed }

func (n *Network) allIdle() bool {
	for _, e := range n.endpoints {
		if !e.Idle() {
			return false
		}
	}
	return true
}

func (n *Network) collect() {
	if n.collectedTime == n.world.Time() {
		return
	}
	n.collectedTime = n.world.Time()
	for _, e := range n.endpoints {
		recs := e.Receive()
		if o := n.obs; o != nil && len(recs) > 0 {
			o.Net.Deliveries.Add(int64(len(recs)))
			for _, r := range recs {
				o.Record(obs.Event{T: n.world.Time(), Kind: obs.EvDeliver, Robot: r.To, Peer: r.From, Val: float64(len(r.Payload))})
			}
		}
		n.delivered = append(n.delivered, recs...)
	}
}
