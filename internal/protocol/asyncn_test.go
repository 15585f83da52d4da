package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

func buildAsyncNWorld(t *testing.T, positions []geom.Point, frames []geom.Frame, cfg AsyncNConfig) (*sim.World, []*Endpoint) {
	t.Helper()
	n := len(positions)
	behaviors, endpoints, err := NewAsyncN(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	robots := make([]*sim.Robot, n)
	for i := range robots {
		robots[i] = &sim.Robot{Frame: frames[i], Sigma: 1e9, Behavior: behaviors[i]}
	}
	w, err := sim.NewWorld(sim.Config{
		Positions:   positions,
		Robots:      robots,
		Identified:  cfg.Naming == NamingIDs,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, endpoints
}

func TestAsyncNDeliveryAcrossSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	positions := randomPositions(rng, 5, 6)
	for name, mk := range asyncSchedulers() {
		t.Run(name, func(t *testing.T) {
			frames := frameSet(rng, 5, false, geom.RightHanded)
			w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
			want := []byte("AN")
			if err := eps[0].Send(3, want); err != nil {
				t.Fatal(err)
			}
			got := runUntilDelivered(t, w, mk(), eps, 1, 500_000)
			if got[0].From != 0 || got[0].To != 3 || !bytes.Equal(got[0].Payload, want) {
				t.Errorf("received %+v, want AN from 0 to 3", got[0])
			}
		})
	}
}

func TestAsyncNNamingSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	positions := randomPositions(rng, 6, 6)
	schemes := []struct {
		name   string
		scheme Naming
		sod    bool
	}{
		{"ids", NamingIDs, true},
		{"lex", NamingLex, true},
		{"sec", NamingSEC, false},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			frames := frameSet(rng, 6, sc.sod, geom.RightHanded)
			w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{Naming: sc.scheme})
			want := []byte{0xAB}
			if err := eps[4].Send(1, want); err != nil {
				t.Fatal(err)
			}
			got := runUntilDelivered(t, w, sim.FirstSync{Inner: sim.NewRandomFair(2)}, eps, 1, 500_000)
			if got[0].From != 4 || got[0].To != 1 || !bytes.Equal(got[0].Payload, want) {
				t.Errorf("received %+v", got[0])
			}
		})
	}
}

func TestAsyncNConcurrentSenders(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 5
	positions := randomPositions(rng, n, 8)
	frames := frameSet(rng, n, false, geom.LeftHanded)
	w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	for i := 0; i < n; i++ {
		to := (i + 2) % n
		if err := eps[i].Send(to, []byte{byte(0x40 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := runUntilDelivered(t, w, sim.FirstSync{Inner: sim.NewRandomFair(41)}, eps, n, 2_000_000)
	seen := map[int]byte{}
	for _, r := range got {
		if r.To != (r.From+2)%n {
			t.Errorf("message from %d delivered to %d", r.From, r.To)
		}
		seen[r.From] = r.Payload[0]
	}
	for i := 0; i < n; i++ {
		if seen[i] != byte(0x40+i) {
			t.Errorf("sender %d: payload %#x", i, seen[i])
		}
	}
}

func TestAsyncNRepeatedBits(t *testing.T) {
	// All-zero and all-one payloads stress the κ separator: consecutive
	// equal bits must stay distinguishable (§4.2's explicit concern).
	rng := rand.New(rand.NewSource(43))
	positions := randomPositions(rng, 3, 10)
	frames := frameSet(rng, 3, false, geom.RightHanded)
	w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	msgs := [][]byte{{0x00}, {0xFF}, {0x00}}
	for _, m := range msgs {
		if err := eps[2].Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	got := runUntilDelivered(t, w, sim.FirstSync{Inner: sim.NewRandomFair(4)}, eps, len(msgs), 2_000_000)
	for i, m := range msgs {
		if !bytes.Equal(got[i].Payload, m) {
			t.Errorf("message %d = %v, want %v", i, got[i].Payload, m)
		}
	}
}

func TestAsyncNCollisionAvoidance(t *testing.T) {
	// C7 in the asynchronous setting: granular confinement throughout.
	rng := rand.New(rand.NewSource(47))
	positions := randomPositions(rng, 6, 5)
	frames := frameSet(rng, 6, false, geom.RightHanded)
	w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	if err := eps[0].Send(5, []byte("CA")); err != nil {
		t.Fatal(err)
	}
	if err := eps[3].Send(1, []byte("CB")); err != nil {
		t.Fatal(err)
	}
	runUntilDelivered(t, w, sim.FirstSync{Inner: sim.NewRandomFair(6)}, eps, 2, 2_000_000)
	homes := w.Trace().Initial()
	radii := granularRadii(homes)
	for _, s := range w.Trace().Steps() {
		for i, p := range s.Positions {
			if p.Dist(homes[i]) > radii[i]+1e-9 {
				t.Fatalf("robot %d left its granular at t=%d (dist %v > %v)",
					i, s.Time, p.Dist(homes[i]), radii[i])
			}
		}
	}
	if d := w.Trace().MinPairwiseDistance(); d <= 0 {
		t.Error("robots collided")
	}
}

// TestAsyncNNeverSilent is the §4 half of experiment C5: every activated
// robot moves, even the idle ones.
func TestAsyncNNeverSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	positions := randomPositions(rng, 4, 8)
	frames := frameSet(rng, 4, false, geom.RightHanded)
	w, _ := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	sched := sim.FirstSync{Inner: sim.NewRandomFair(8)}
	for i := 0; i < 400; i++ {
		if _, err := w.Step(sched); err != nil {
			t.Fatal(err)
		}
	}
	checkEveryActivationMoves(t, w.Trace(), 0)
}

func TestAsyncNEavesdropRedundancy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	positions := randomPositions(rng, 4, 8)
	frames := frameSet(rng, 4, false, geom.RightHanded)
	w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	want := []byte("EV")
	if err := eps[0].Send(1, want); err != nil {
		t.Fatal(err)
	}
	sched := sim.FirstSync{Inner: sim.NewRandomFair(10)}
	runUntilDelivered(t, w, sched, eps, 1, 1_000_000)
	// The recipient decodes first; give the eavesdropper a few more
	// activations to observe the sender's final excursion.
	for i := 0; i < 2_000; i++ {
		if _, err := w.Step(sched); err != nil {
			t.Fatal(err)
		}
	}
	over := eps[3].Overheard()
	if len(over) != 1 || over[0].From != 0 || over[0].To != 1 || !bytes.Equal(over[0].Payload, want) {
		t.Errorf("robot 3 overheard %+v, want EV 0->1", over)
	}
}

func TestAsyncNTwoRobots(t *testing.T) {
	// AsyncN must also work at its lower bound n=2, where §4.2 says it
	// coincides in spirit with Async2.
	frames := []geom.Frame{geom.WorldFrame(), geom.WorldFrame()}
	w, eps := buildAsyncNWorld(t, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}, frames, AsyncNConfig{})
	want := []byte("2!")
	if err := eps[1].Send(0, want); err != nil {
		t.Fatal(err)
	}
	got := runUntilDelivered(t, w, sim.FirstSync{Inner: sim.RoundRobin{}}, eps, 1, 1_000_000)
	if !bytes.Equal(got[0].Payload, want) {
		t.Errorf("payload %q", got[0].Payload)
	}
}

func TestNewAsyncNValidation(t *testing.T) {
	tests := []struct {
		name string
		n    int
		cfg  AsyncNConfig
	}{
		{"n too small", 1, AsyncNConfig{}},
		{"amplitude out of range", 3, AsyncNConfig{AmplitudeFrac: 1.2}},
		{"step above amplitude", 3, AsyncNConfig{AmplitudeFrac: 0.5, StepFrac: 0.6}},
		{"divisor too small", 3, AsyncNConfig{StepDivisor: 0.9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := NewAsyncN(tt.n, tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestAsyncNSECCenterRobotDegradesGracefully(t *testing.T) {
	// A robot exactly at the SEC centre has no horizon (§3.4's blind
	// spot): it must flag the error yet keep the swarm live.
	positions := []geom.Point{
		geom.Pt(0, 0), // at the SEC centre of the surrounding square
		geom.Pt(10, 0), geom.Pt(-10, 0), geom.Pt(0, 10), geom.Pt(0, -10),
	}
	frames := make([]geom.Frame, 5)
	for i := range frames {
		frames[i] = geom.WorldFrame()
	}
	behaviors, eps, err := NewAsyncN(5, AsyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	robots := make([]*sim.Robot, 5)
	for i := range robots {
		robots[i] = &sim.Robot{Frame: frames[i], Sigma: 1e9, Behavior: behaviors[i]}
	}
	w, err := sim.NewWorld(sim.Config{Positions: positions, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	// Robots 1 and 3 can still talk even with robot 0 at the centre.
	if err := eps[1].Send(3, []byte("OK")); err != nil {
		t.Fatal(err)
	}
	var got []Received
	_, ok, err := w.Run(sim.FirstSync{Inner: sim.NewRandomFair(12)}, 1_000_000, func(*sim.World) bool {
		got = append(got, eps[3].Receive()...)
		return len(got) > 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivery blocked by centre robot")
	}
	if !bytes.Equal(got[0].Payload, []byte("OK")) {
		t.Errorf("payload %q", got[0].Payload)
	}
	r0, okCast := behaviors[0].(*asyncNRobot)
	if !okCast {
		t.Fatal("unexpected behavior type")
	}
	if r0.Err() == nil {
		t.Error("centre robot did not flag ErrNoHorizon")
	}
}

func TestAsyncNLongMessageManyRobots(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rng := rand.New(rand.NewSource(61))
	n := 8
	positions := randomPositions(rng, n, 6)
	frames := frameSet(rng, n, false, geom.RightHanded)
	w, eps := buildAsyncNWorld(t, positions, frames, AsyncNConfig{})
	want := []byte(fmt.Sprintf("swarm of %d robots", n))
	if err := eps[0].Send(n-1, want); err != nil {
		t.Fatal(err)
	}
	got := runUntilDelivered(t, w, sim.FirstSync{Inner: sim.NewRandomFair(3)}, eps, 1, 5_000_000)
	if !bytes.Equal(got[0].Payload, want) {
		t.Errorf("payload corrupted: %q", got[0].Payload)
	}
}
