package dist

// The send path: epoch batches of remote derivations become messages,
// each message crosses its link's fault channel, and arrivals are
// admitted or dropped.

import (
	"strings"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/value"
)

// msgEntry is one tuple (or retraction) inside a message.
type msgEntry struct {
	pred  string
	tup   value.Tuple
	cause prov.ID
	del   bool // retraction: run the receiver's deletion cascade
}

// queueRemote adds one tuple (or retraction) to the src→dst epoch batch:
// every remote derivation of one event instant rides a single message
// per link, flushed when the event finishes (flushOutbox). Retractions
// are link-bound: a dead direct link cannot signal a deletion, so the
// entry is silently discarded before it ever becomes a message — the
// paper's soft-state stance that retractions cannot cross failed links
// (refresh and expiry are the backstop for the stale remote state).
func (n *Network) queueRemote(src, dst string, en msgEntry) {
	k := src + "|" + dst
	if en.del {
		if _, alive := n.tIdx().link[k]; !alive {
			return
		}
	}
	box := n.outbox[k]
	for _, have := range box {
		if have.del == en.del && have.pred == en.pred && have.tup.Equal(en.tup) {
			return // exact duplicate within this epoch batch
		}
	}
	if box == nil {
		n.outboxOrder = append(n.outboxOrder, k)
	}
	n.outbox[k] = append(box, en)
}

// flushOutbox sends every pending epoch batch, one message per touched
// link in first-touch order.
func (n *Network) flushOutbox() {
	if len(n.outboxOrder) == 0 {
		return
	}
	order := n.outboxOrder
	n.outboxOrder = n.outboxOrder[:0]
	for _, k := range order {
		entries := n.outbox[k]
		delete(n.outbox, k)
		if len(entries) == 0 {
			continue
		}
		i := strings.IndexByte(k, '|')
		n.send(k[:i], k[i+1:], entries, false)
	}
}

// send sends one logical message: a non-empty batch of entries over the
// src→dst link, with one statistics entry, one fault draw set and, under
// Options.Reliable, one sequence number. A reliable message is first
// registered with the link's reliable-channel state (pending entry,
// first retransmit timer); either way the physical transmission goes
// through transmit. repair marks anti-entropy pulls, recorded in
// provenance so `fvn why` explains healed tuples.
func (n *Network) send(src, dst string, entries []msgEntry, repair bool) {
	var rseq int64
	if n.opts.Reliable {
		rs := n.relFor(src, dst)
		rs.nextSeq++
		rseq = rs.nextSeq
		rs.pending[rseq] = &relPending{entries: entries, repair: repair, sentAt: n.now}
		n.scheduleRetx(rs, rseq, 1)
	}
	n.transmit(src, dst, entries, rseq, 0, repair)
}

// transmit applies the link's fault channel to one physical transmission:
// duplication (each copy counts as sent and faces loss independently),
// loss, delay jitter, and reordering delay. Every scheduled copy is
// stamped with the link epoch so a later link failure drops it in
// flight. Retransmissions re-enter here with attempt > 0 and count as
// sent like any other copy.
func (n *Network) transmit(src, dst string, entries []msgEntry, rseq int64, attempt int, repair bool) {
	ch := n.chanFor(src, dst)
	copies := 1
	if ch != nil && ch.cfg.Dup > 0 && ch.rng.Float64() < ch.cfg.Dup {
		copies = 2
		n.nm.duplicated.Add(1)
	}
	lat, direct := n.latency(src, dst)
	epoch := 0
	if direct {
		epoch = n.linkEpoch[src+"|"+dst]
	}
	for c := 0; c < copies; c++ {
		n.nm.sent.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvMessageSent, From: src, To: dst, Pred: entries[0].pred, Tuple: entries[0].tup.String()})
		}
		if ch != nil && ch.cfg.Loss > 0 && ch.rng.Float64() < ch.cfg.Loss {
			n.dropMessage(src, dst, entries)
			continue
		}
		delay := lat
		if ch != nil {
			if ch.cfg.Jitter > 0 {
				delay += ch.rng.Float64() * ch.cfg.Jitter
			}
			if ch.cfg.Reorder > 0 && ch.rng.Float64() < ch.cfg.Reorder {
				delay += ch.rng.Float64() * 2 * lat
			}
		}
		n.schedule(&event{
			at:      n.now + delay,
			kind:    evMessage,
			node:    dst,
			from:    src,
			epoch:   epoch,
			direct:  direct,
			repair:  repair,
			rseq:    rseq,
			attempt: attempt,
			entries: entries,
		})
	}
}

// chanState is the resolved noise model of one directed link, with its
// own identity-derived PRNG stream.
type chanState struct {
	cfg faults.Channel
	rng *faults.RNG
}

// chanFor resolves (and caches) the fault channel of the src→dst link:
// a per-link override from the plan, else the default channel. A nil
// result means the link is noiseless. Resolving a channel draws nothing
// from its PRNG, so the reliable layer reads the reverse link's loss
// rate here and draws ack loss from its own substream.
func (n *Network) chanFor(src, dst string) *chanState {
	if !n.hasChans {
		return nil
	}
	k := src + "|" + dst
	if ch, ok := n.chans[k]; ok {
		return ch
	}
	cfg := n.defaultChan
	if ov, ok := n.chanOverrides[k]; ok {
		cfg = ov
	}
	var ch *chanState
	if !cfg.Zero() {
		ch = &chanState{cfg: cfg, rng: faults.Substream(n.opts.Seed, "chan", src, dst)}
	}
	n.chans[k] = ch
	return ch
}

func (n *Network) dropMessage(src, dst string, entries []msgEntry) {
	n.nm.dropped.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvMessageDropped, From: src, To: dst, Pred: entries[0].pred, Tuple: entries[0].tup.String()})
	}
}

// arrivalDropped reports (and accounts) a message that cannot be
// delivered: its link failed while it was in flight, its destination is
// down, or the endpoints are in different components at arrival time
// (the underlay reroutes around dead links but cannot cross a
// partition).
func (n *Network) arrivalDropped(e *event) bool {
	if dst := n.nodes[e.node]; dst != nil && dst.down {
		n.dropMessage(e.from, e.node, e.entries)
		return true
	}
	if e.direct && n.linkEpoch[e.from+"|"+e.node] != e.epoch {
		n.dropMessage(e.from, e.node, e.entries)
		return true
	}
	if !n.reachable(e.from, e.node) {
		n.dropMessage(e.from, e.node, e.entries)
		return true
	}
	return false
}

// noteDelivered records one message delivery.
func (n *Network) noteDelivered(e *event) {
	n.nm.delivered.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: e.at, Kind: obs.EvMessageDelivered, Node: e.node, Pred: e.entries[0].pred, Tuple: e.entries[0].tup.String()})
	}
}
