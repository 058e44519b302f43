// electionstorm reproduces the Raft election-loop storm seeded in the
// MetaStore-like consensus target (Table 3, RAFT-1): the control-plane
// cascade where timeouts and elections feed each other.
//
//	go run ./examples/electionstorm
//
// The cycle's halves live in two different workloads, so no single test
// exposes the storm:
//
//	t1  slow_follower_catchup : delaying the catch-up batch loop (a slow
//	                            follower) monopolizes the leader's
//	                            replication round; healthy followers miss
//	                            heartbeats and the staleness detector
//	                            fires -- catchup -> hb_fresh, election
//	t2  leader_transfer       : delaying the election loop after a planned
//	                            leadership transfer leaves the cluster
//	                            leaderless past the timeout -- election ->
//	                            hb_fresh
//	t3  leader_transfer       : negating the staleness detector across
//	                            the same transfers turns every timer tick
//	                            into a campaign -- hb_fresh -> election
//
// CSnake discovers causal edges in each experiment and stitches them
// into the self-sustaining cycle.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/systems/metastore"
	"repro/internal/systems/sysreg"
)

func main() {
	sys := metastore.New()
	driver := harness.New(sys, sysreg.Space(sys), harness.Config{
		Reps:            3,
		DelayMagnitudes: []time.Duration{2 * time.Second, 8 * time.Second},
	})

	fmt.Println("t1: delay the catch-up batch loop while a follower lags (slow_follower_catchup)")
	fmt.Printf("  interference: %v\n", driver.Execute(metastore.PtCatchupLoop, "slow_follower_catchup"))

	fmt.Println("t2: delay the election loop across planned leadership transfers (leader_transfer)")
	fmt.Printf("  interference: %v\n", driver.Execute(metastore.PtElectionLoop, "leader_transfer"))

	fmt.Println("t3: negate the heartbeat-freshness detector across leadership transfers (leader_transfer)")
	fmt.Printf("  interference: %v\n", driver.Execute(metastore.PtHBFresh, "leader_transfer"))

	fmt.Println("\ndiscovered causal edges:")
	var intoFresh, outOfFresh bool
	for _, e := range driver.Edges() {
		fmt.Printf("  %s\n", e)
		if e.To == metastore.PtHBFresh {
			intoFresh = true
		}
		if e.From == metastore.PtHBFresh && e.To == metastore.PtElectionLoop {
			outOfFresh = true
		}
	}

	fmt.Println()
	if intoFresh && outOfFresh {
		fmt.Println("cycle closed: replication load -> heartbeat staleness -> elections -> replication load")
		fmt.Println("every new leader inherits a cluster that is further behind, and client retries")
		fmt.Println("of timed-out proposals duplicate entries: the load that caused the election")
		fmt.Println("grows because of it -- a self-sustaining cascading failure.")
	} else {
		fmt.Println("cycle not closed under this light configuration; raise Reps/magnitudes.")
		os.Exit(1) // the CI example smoke treats a broken demonstration as a failure
	}
}
