package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"waggle"
)

// FuzzCreateSession attacks the create-request → swarm-options mapping
// a client drives with POST /v1/sessions: the JSON body is decoded the
// way handleCreate decodes it, run through the robot-count check,
// buildSwarmOptions and NewSwarm, and an accepted swarm takes one send
// and a few steps. Contract: nothing panics, each rejection is an error
// at one of the stages handleCreate answers with 400 (decode, robot
// count, options, swarm construction), and an accepted swarm steps
// without error (handleStep would answer a step error with 500).
func FuzzCreateSession(f *testing.F) {
	maxRobots := Options{}.withDefaults().MaxRobots
	for _, req := range []CreateRequest{
		twoRobotConfig(1),
		{Positions: [][2]float64{{0, 0}, {4, 1}, {-3, 2}, {1, -5}}, Protocol: "asyncn", Seed: 9, Trace: true},
		{Positions: [][2]float64{{0, 0}, {3, 0}, {0, 3}}, Synchronous: true, Protocol: "syncn", Identified: true},
		{Positions: [][2]float64{{0, 0}, {1, 1}}, Protocol: "asyncbounded", BoundedSlices: 3, Levels: 4},
		{Positions: [][2]float64{{0, 0}, {2, 0}}, Protocol: "async2", Scheduler: "roundrobin", Engine: "parallel", ActivationProb: 0.5},
		{Positions: [][2]float64{{0, 0}, {0, 0}}, Sigma: -1},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"positions":[[0,0]],"protocol":"nope"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CreateRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		if n := len(req.Positions); n < 2 || n > maxRobots {
			return
		}
		opts, err := buildSwarmOptions(req)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("options rejection without a message")
			}
			return
		}
		positions := make([]waggle.Point, len(req.Positions))
		for i, p := range req.Positions {
			positions[i] = waggle.Point{X: p[0], Y: p[1]}
		}
		swarm, err := waggle.NewSwarm(positions, opts...)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("swarm rejection without a message")
			}
			return
		}
		if swarm.N() != len(positions) {
			t.Fatalf("swarm has %d robots, request %d", swarm.N(), len(positions))
		}
		// handleSend answers any refused send with 400.
		_ = swarm.Send(0, 1, []byte("fz"))
		for i := 0; i < 3; i++ {
			if err := swarm.Step(); err != nil {
				t.Fatalf("step %d of an accepted swarm: %v", i, err)
			}
		}
	})
}
