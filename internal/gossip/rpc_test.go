package gossip

import (
	"testing"

	"repro/internal/bls"
	"repro/internal/transport"
)

// startWitness serves a witness over a real transport server and returns
// its address.
func startWitness(t *testing.T, w *Witness) string {
	t.Helper()
	srv := transport.NewServer()
	w.Register(srv)
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dialPeer(t *testing.T, addr string) *Peer {
	t.Helper()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPeer(c)
	t.Cleanup(func() { p.Close() })
	return p
}

// TestGossipRoundConvergence: three witnesses observe the same honest
// source and, after each runs one round over real transport, every
// witness holds a frontier cosigned by all three — enough for any client
// quorum up to 3.
func TestGossipRoundConvergence(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 8)
	w1 := newTestWitness(t, "w1", []*sourceLog{src})
	w2 := newTestWitness(t, "w2", []*sourceLog{src}, w1)
	w3 := newTestWitness(t, "w3", []*sourceLog{src}, w1, w2)
	ws := []*Witness{w1, w2, w3}

	head := src.head()
	for _, w := range ws {
		if res := w.Ingest("mon", head, nil); !res.Accepted {
			t.Fatalf("%s rejected the honest head: %+v", w.Name(), res)
		}
	}

	addrs := make([]string, len(ws))
	for i, w := range ws {
		addrs[i] = startWitness(t, w)
	}
	for i, w := range ws {
		var peers []*Peer
		for j, addr := range addrs {
			if j != i {
				peers = append(peers, dialPeer(t, addr))
			}
		}
		sum, err := w.Round(peers)
		if err != nil {
			t.Fatalf("%s round: %v", w.Name(), err)
		}
		if sum.Peers != 2 {
			t.Fatalf("%s exchanged with %d peers, want 2", w.Name(), sum.Peers)
		}
		if sum.NewProofs != 0 {
			t.Fatalf("%s produced proofs for an honest source", w.Name())
		}
	}

	keys := []*bls.PublicKey{w1.PublicKey(), w2.PublicKey(), w3.PublicKey()}
	for _, w := range ws {
		ch, err := w.CosignedHead("mon")
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCosignedHead(src.pk, keys, 3, ch); err != nil {
			t.Fatalf("%s frontier below full quorum: %v", w.Name(), err)
		}
	}
}

// TestCosignRPC drives the cosign kind over transport.
func TestCosignRPC(t *testing.T) {
	src := newSourceLog(t, "mon", 4, 5)
	w := newTestWitness(t, "w", []*sourceLog{src})
	p := dialPeer(t, startWitness(t, w))

	resp, err := p.Cosign(&CosignRequest{Source: "mon", Head: src.head()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Cosig == nil {
		t.Fatalf("cosign refused: %+v", resp)
	}
	if resp2, err := p.Cosign(&CosignRequest{Source: "nope", Head: src.head()}); err != nil {
		t.Fatal(err)
	} else if resp2.Error == "" || resp2.Accepted {
		t.Fatalf("unknown source cosigned: %+v", resp2)
	}
}
