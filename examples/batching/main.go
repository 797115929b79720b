// Batching walkthrough: run the same Table-1 boundary instance through
// the engine's two delivery modes — the default per-recipient batched
// path and the per-message reference path — and show that they produce
// identical executions while doing differently shaped work.
//
// The instance sits exactly on the paper's partially synchronous
// boundary 2l > n + 3t (n=6, l=5, t=1: 10 > 9), with an equivocating
// Byzantine process and heavy pre-GST message loss, so both the drop
// masks and the homonym machinery are genuinely exercised.
//
//	go run ./examples/batching
package main

import (
	"fmt"
	"log"
	"reflect"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
)

func main() {
	// The boundary instance. One fewer identifier (l=4) would flip
	// Table 1 to unsolvable — this is the thinnest solvable air the
	// partially synchronous homonym algorithm breathes.
	params := hom.Params{
		N:         6,
		L:         5,
		T:         1,
		Synchrony: hom.PartiallySynchronous,
	}
	fmt.Println("model:", params)

	// Fresh options per run, assembled through the engine's functional
	// options API: the adversary pieces are deterministic in their seeds,
	// so both runs face the very same Byzantine behaviour and the very
	// same pre-GST drop pattern.
	build := func(mode engine.DeliveryMode) []engine.Option {
		return []engine.Option{
			engine.WithParams(params),
			engine.WithAssignment(hom.RoundRobinAssignment(params.N, params.L)),
			engine.WithInputs(0, 1, 1, 0, 1, 0),
			engine.WithProcess(psynchom.NewUnchecked(params, psynchom.Options{})),
			engine.WithAdversary(&adversary.Composite{
				Selector: adversary.Slots{3},
				Behavior: adversary.Equivocate{Seed: 7},
				// RandomDrops implements adversary.BatchDropPolicy: under
				// batched delivery the engine asks for one drop mask per
				// recipient per round instead of one Drop call per message.
				Drops: adversary.RandomDrops{Seed: 7, Prob: 0.4},
			}),
			engine.WithGST(13),
			engine.WithRounds(psynchom.SuggestedMaxRounds(params, 13)),
			// WithDelivery is the only difference between the two runs.
			//
			//   DeliverBatched (the default): each round, every send is
			//   stamped once into the structure-of-arrays send arena and
			//   bucketed per recipient; the visibility and drop masks are
			//   applied over each recipient's whole batch, survivors are
			//   copied into the delivery index in one append, and the
			//   statistics are accumulated per batch.
			//
			//   DeliverPerMessage: the reference path — every
			//   (send, recipient) pair goes through the deliver hook
			//   individually, exactly like the pre-batching engine.
			engine.WithDelivery(mode),
		}
	}

	run := func(name string, mode engine.DeliveryMode) *engine.Result {
		res, err := engine.Run(build(mode)...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s rounds=%d sent=%d delivered=%d dropped=%d allDecided=%v\n",
			name, res.Rounds, res.Stats.MessagesSent, res.Stats.MessagesDelivered,
			res.Stats.MessagesDropped, res.AllDecided)
		return res
	}

	batched := run("batched:", engine.DeliverBatched)
	perMessage := run("per-message:", engine.DeliverPerMessage)

	// The parity contract, checked live: not just the decisions but the
	// entire Result — decision rounds, effective GST, every statistic —
	// must coincide. The repository pins this for every committed fuzz
	// seed (TestSeedCorpusDeliveryParity); here it is on one instance.
	if !reflect.DeepEqual(batched, perMessage) {
		log.Fatal("delivery modes diverged — this is a bug the parity tests would catch")
	}
	fmt.Println("parity:      batched and per-message results are identical")

	for s, v := range batched.Decisions {
		if batched.IsCorrupted(s) {
			fmt.Printf("  process %d (identifier %d): byzantine\n", s, batched.Assignment[s])
			continue
		}
		fmt.Printf("  process %d (identifier %d): decided %d in round %d\n",
			s, batched.Assignment[s], v, batched.DecidedAt[s])
	}
}
