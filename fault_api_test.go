package waggle

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"unknown kind", FaultPlan{Events: []FaultEvent{{At: 1, Robot: 0}}}},
		{"robot out of range", FaultPlan{Events: []FaultEvent{
			{Kind: FaultCrash, Robot: 9, At: 1, Until: 2}}}},
		{"negative robot", FaultPlan{Events: []FaultEvent{
			{Kind: FaultCrash, Robot: -2, At: 1, Until: 2}}}},
		{"NaN magnitude", FaultPlan{Events: []FaultEvent{
			{Kind: FaultObserveNoise, Robot: 0, At: 1, Until: 2, Mag: math.NaN()}}}},
		{"inverted window", FaultPlan{Events: []FaultEvent{
			{Kind: FaultDropSight, Robot: 0, At: 5, Until: 2, Mag: 0.5}}}},
		{"inf displacement", FaultPlan{Events: []FaultEvent{
			{Kind: FaultDisplace, Robot: 0, At: 1, DX: math.Inf(1)}}}},
	}
	for _, c := range cases {
		if _, err := NewSwarm(square(), WithSynchronous(), WithFaultPlan(c.plan)); err == nil {
			t.Errorf("%s: plan accepted", c.name)
		}
	}
	// A valid plan builds.
	ok := FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrash, Robot: 0, At: 10, Until: 20},
		{Kind: FaultMoveError, Robot: -1, At: 5, Until: 8, Min: 0.5, Max: 1.5},
	}}
	if _, err := NewSwarm(square(), WithSynchronous(), WithFaultPlan(ok)); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestFaultPlanEnd(t *testing.T) {
	if end := (FaultPlan{}).End(); end != 0 {
		t.Errorf("empty plan End() = %d", end)
	}
	p := FaultPlan{Events: []FaultEvent{
		{Kind: FaultDisplace, Robot: 0, At: 30, DX: 1},
		{Kind: FaultObserveNoise, Robot: -1, At: 10, Until: 50, Mag: 1},
	}}
	if end := p.End(); end != 50 {
		t.Errorf("End() = %d, want 50", end)
	}
	p.Events = append(p.Events, FaultEvent{Kind: FaultDisplace, Robot: 1, At: 60, DX: 1})
	if end := p.End(); end != 61 {
		t.Errorf("End() = %d, want 61 (a displacement ends after its instant)", end)
	}
	p.Events = append(p.Events, FaultEvent{Kind: FaultJamRamp, Robot: -1, At: 60, Until: 70, Max: 1})
	if end := p.End(); end != 70 {
		t.Errorf("End() = %d, want 70", end)
	}
	forever := FaultPlan{Events: []FaultEvent{{Kind: FaultCrash, Robot: 0, At: 5}}}
	if end := forever.End(); end != -1 {
		t.Errorf("never-ending plan End() = %d, want -1", end)
	}
}

func TestFaultPlanRadioEventsNeedRadio(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{
		{Kind: FaultRadioOutage, Robot: 0, At: 10, Until: 20},
	}}
	_, err := NewSwarm(square(), WithSynchronous(), WithFaultPlan(plan))
	if err == nil {
		t.Fatal("radio-event plan accepted without a radio")
	}
	if !strings.Contains(err.Error(), "WithFaultRadio") {
		t.Errorf("error %q does not point at WithFaultRadio", err)
	}
	radio := NewRadio(4, 1)
	if _, err := NewSwarm(square(), WithSynchronous(),
		WithFaultPlan(plan), WithFaultRadio(radio)); err != nil {
		t.Errorf("radio-event plan with a radio rejected: %v", err)
	}
}

func TestStabilizationOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"async", []Option{WithStabilization(100)}},
		{"negative epoch", []Option{WithSynchronous(), WithStabilization(-1)}},
		{"levels conflict", []Option{WithSynchronous(), WithStabilization(100), WithLevels(8)}},
		{"protocol conflict", []Option{WithSynchronous(), WithStabilization(100), WithProtocol(ProtoSync2)}},
	}
	for _, c := range cases {
		if _, err := NewSwarm(square(), c.opts...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	s, err := NewSwarm(square(), WithSynchronous(), WithStabilization(120))
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol() != ProtoSyncN {
		t.Errorf("stabilized protocol = %v, want syncn", s.Protocol())
	}
}

func TestRadioJammingValidation(t *testing.T) {
	radio := NewRadio(4, 1)
	for _, p := range []float64{math.NaN(), -0.1, 1.1, math.Inf(1)} {
		if err := radio.SetJamming(p); err == nil {
			t.Errorf("SetJamming(%v) accepted", p)
		}
	}
	if err := radio.SetJamming(0.5); err != nil {
		t.Errorf("SetJamming(0.5) rejected: %v", err)
	}
	if got := radio.JamProb(); got != 0.5 {
		t.Errorf("JamProb = %v, want 0.5", got)
	}
}

// TestMessengerSelfHealsUnderFaultPlan is the ISSUE acceptance
// scenario on the public API: a FaultRadioOutage breaks the radio
// mid-run; the self-healing messenger retries, fails over to the
// movement channel, keeps delivering, and fails back once the plan
// repairs the radio.
func TestMessengerSelfHealsUnderFaultPlan(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{
		{Kind: FaultRadioOutage, Robot: 0, At: 10, Until: 400},
	}}
	radio := NewRadio(4, 2)
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(5),
		WithFaultPlan(plan), WithFaultRadio(radio))
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBackupMessenger(radio, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.SetPolicy(DefaultMessengerPolicy()); err != nil {
		t.Fatal(err)
	}

	step := func(until int) {
		t.Helper()
		for s.Time() < until {
			if err := bm.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Healthy: over the radio, instantly.
	if err := bm.Send(0, 1, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if got := radio.Receive(1); len(got) != 1 || !bytes.Equal(got[0].Payload, []byte("A")) {
		t.Fatalf("pre-fault radio delivery missing: %v", got)
	}

	// Into the outage: the plan has broken the transmitter.
	step(20)
	want := []byte("B")
	if err := bm.Send(0, 2, want); err != nil {
		t.Fatal(err)
	}
	step(300)
	if bm.Health(0) != ChannelMovement {
		t.Fatal("sender did not fail over during the outage")
	}
	delivered := s.Delivered()
	found := false
	for _, d := range delivered {
		if d.To == 2 && bytes.Equal(d.Payload, want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("failover message not delivered by movement: %v", delivered)
	}
	st := bm.DetailedStats()
	if st.Retries < 1 || st.Failovers != 1 || st.ImplicitAcks != 1 {
		t.Errorf("self-heal counters incomplete mid-outage: %+v", st)
	}

	// Past the repair: the next send probes the radio and fails back.
	step(410)
	if err := bm.Send(0, 3, []byte("C")); err != nil {
		t.Fatal(err)
	}
	if got := radio.Receive(3); len(got) != 1 || !bytes.Equal(got[0].Payload, []byte("C")) {
		t.Fatalf("post-repair radio delivery missing: %v", got)
	}
	st = bm.DetailedStats()
	if st.Failbacks != 1 {
		t.Errorf("failback not recorded: %+v", st)
	}
	if bm.Health(0) != ChannelRadio {
		t.Error("sender did not fail back after the repair")
	}
}

// TestCrashPlanWithStabilizationRecovers: a crash-recover plan under
// the stabilizing wrapper — a message sent after the recovered robot's
// next epoch boundary goes through.
func TestCrashPlanWithStabilizationRecovers(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrash, Robot: 1, At: 70, Until: 240},
	}}
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(3),
		WithStabilization(120), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	for s.Time() < 242 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte("R")
	if err := s.Send(0, 1, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.RunUntilDelivered(1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].To != 1 || !bytes.Equal(got[0].Payload, want) {
		t.Errorf("post-recovery delivery = %+v", got[0])
	}
}
