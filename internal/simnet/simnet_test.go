package simnet

import (
	"errors"
	"sync"
	"testing"
)

func echoNet(t *testing.T) (*Network, *Host, *Host, *Host) {
	t.Helper()
	n := New(1)
	a := n.Host("a")
	b := n.Host("b")
	c := n.Host("c")
	for _, h := range []*Host{a, b, c} {
		h.HandleRPC("echo", func(req []byte) ([]byte, error) { return req, nil })
	}
	return n, a, b, c
}

func TestRPCRoundTrip(t *testing.T) {
	_, a, _, _ := echoNet(t)
	resp, err := a.Call("b", "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("resp %q", resp)
	}
}

func TestRPCToSelf(t *testing.T) {
	_, a, _, _ := echoNet(t)
	if _, err := a.Call("a", "echo", []byte("x")); err != nil {
		t.Fatalf("self call: %v", err)
	}
}

func TestRPCErrors(t *testing.T) {
	_, a, b, _ := echoNet(t)
	if _, err := a.Call("zz", "echo", nil); !errors.Is(err, ErrNoHost) {
		t.Fatalf("no host: %v", err)
	}
	if _, err := a.Call("b", "nope", nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("no service: %v", err)
	}
	_ = b
}

// TestRefusalsKeepTheirText: a refused or failed call is one value, which
// errors.Is sees through to its cause and which renders the text a wrapped
// fmt.Errorf did; a call refused at a partition allocates that one value.
func TestRefusalsKeepTheirText(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.Partition([]Addr{"a", "b"}, []Addr{"c"})
	n.SetLinkFaults("a", "b", FaultProfile{BaseTicks: 30})
	_, noHost := a.Call("zz", "echo", nil)
	_, noService := a.Call("b", "nope", nil)
	_, cut := a.Call("c", "echo", nil)
	_, _, leg := a.CallT("b", "echo", nil, 25)
	_, _, slow := a.CallT("b", "echo", nil, 45)
	n.ScriptFaults("a", "b", FaultHang)
	_, _, hung := a.CallT("b", "echo", nil, 100)
	for _, c := range []struct {
		err   error
		cause error
		want  string
	}{
		{noHost, ErrNoHost, "simnet: no such host: zz"},
		{noService, ErrNoService, "simnet: no such service: nope on b"},
		{cut, ErrUnreachable, "simnet: host unreachable: a -> c"},
		{leg, ErrDeadline, "simnet: rpc deadline exceeded: a -> b (request leg 30 >= deadline 25)"},
		{slow, ErrDeadline, "simnet: rpc deadline exceeded: a -> b (latency 60 >= deadline 45)"},
		{hung, ErrDeadline, "simnet: rpc deadline exceeded: a -> b (reply hung)"},
	} {
		if !errors.Is(c.err, c.cause) || c.err.Error() != c.want {
			t.Errorf("got %v, want %q wrapping %v", c.err, c.want, c.cause)
		}
	}
	if got := testing.AllocsPerRun(100, func() { a.Call("c", "echo", nil) }); got > 1 {
		t.Errorf("a call refused at a partition allocates %v times, want 1", got)
	}
}

func TestPartitionBlocksRPC(t *testing.T) {
	n, a, b, c := echoNet(t)
	n.Partition([]Addr{"a", "b"}, []Addr{"c"})
	if _, err := a.Call("b", "echo", nil); err != nil {
		t.Fatalf("same group: %v", err)
	}
	if _, err := a.Call("c", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition: %v", err)
	}
	if !n.Connected("a", "b") || n.Connected("b", "c") {
		t.Fatal("Connected disagrees with partition")
	}
	n.Heal()
	if _, err := a.Call("c", "echo", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	_, _ = b, c
}

func TestUnlistedHostIsolatedByPartition(t *testing.T) {
	n, a, _, c := echoNet(t)
	n.Partition([]Addr{"a", "b"}) // c unlisted -> singleton
	if _, err := a.Call("c", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unlisted host reachable: %v", err)
	}
	// c can still talk to itself.
	if _, err := c.Call("c", "echo", nil); err != nil {
		t.Fatalf("self call while isolated: %v", err)
	}
}

func TestEmptyPartitionHeals(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.Partition([]Addr{"a"}, []Addr{"b"}, []Addr{"c"})
	n.Partition()
	if _, err := a.Call("b", "echo", nil); err == nil {
		t.Fatal("Partition() with no groups should isolate everyone (each unlisted host is a singleton)")
	}
	n.Heal()
	if _, err := a.Call("b", "echo", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestDownHost(t *testing.T) {
	_, a, b, _ := echoNet(t)
	b.SetDown(true)
	if !b.Down() {
		t.Fatal("Down() = false")
	}
	if _, err := a.Call("b", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to down host: %v", err)
	}
	// A down host cannot originate calls either.
	if _, err := b.Call("a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call from down host: %v", err)
	}
	b.SetDown(false)
	if _, err := a.Call("b", "echo", nil); err != nil {
		t.Fatalf("after revive: %v", err)
	}
}

func TestMulticastDelivery(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	var mu sync.Mutex
	got := map[Addr][]string{}
	for _, name := range []Addr{"b", "c", "d"} {
		name := name
		n.Host(name).HandleDatagram("notify", func(from Addr, p []byte) {
			mu.Lock()
			got[name] = append(got[name], string(p))
			mu.Unlock()
		})
	}
	a.Multicast("notify", []byte("v2"), []Addr{"b", "c", "d"})
	for _, name := range []Addr{"b", "c", "d"} {
		if len(got[name]) != 1 || got[name][0] != "v2" {
			t.Fatalf("%s got %v", name, got[name])
		}
	}
	s := n.Stats()
	if s.DatagramsDelivered != 3 || s.DatagramsDropped != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMulticastDropsAcrossPartition(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	seen := 0
	n.Host("b").HandleDatagram("notify", func(Addr, []byte) { seen++ })
	n.Host("c").HandleDatagram("notify", func(Addr, []byte) { seen++ })
	n.Partition([]Addr{"a", "b"}, []Addr{"c"})
	a.Multicast("notify", []byte("x"), []Addr{"b", "c"})
	if seen != 1 {
		t.Fatalf("deliveries %d, want 1", seen)
	}
	s := n.Stats()
	if s.DatagramsDropped != 1 || s.DatagramsDelivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMulticastToUnregisteredPortDropped(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	n.Host("b")
	a.Multicast("notify", nil, []Addr{"b"})
	if s := n.Stats(); s.DatagramsDropped != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDatagramLossRate(t *testing.T) {
	n := New(42)
	a := n.Host("a")
	delivered := 0
	n.Host("b").HandleDatagram("p", func(Addr, []byte) { delivered++ })
	n.SetFaults(FaultProfile{DatagramLossRate: 0.5})
	for i := 0; i < 1000; i++ {
		a.Multicast("p", nil, []Addr{"b"})
	}
	if delivered < 350 || delivered > 650 {
		t.Fatalf("delivered %d of 1000 at 50%% loss", delivered)
	}
	// Determinism: same seed, same outcome.
	n2 := New(42)
	a2 := n2.Host("a")
	delivered2 := 0
	n2.Host("b").HandleDatagram("p", func(Addr, []byte) { delivered2++ })
	n2.SetFaults(FaultProfile{DatagramLossRate: 0.5})
	for i := 0; i < 1000; i++ {
		a2.Multicast("p", nil, []Addr{"b"})
	}
	if delivered2 != delivered {
		t.Fatalf("non-deterministic: %d vs %d", delivered, delivered2)
	}
}

func TestRPCStats(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.ResetStats()
	a.Call("b", "echo", []byte("1234"))
	a.Call("zz", "echo", nil)
	s := n.Stats()
	if s.RPCs != 2 || s.RPCFailures != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.RPCBytes != 8 { // 4 request + 4 echoed response
		t.Fatalf("bytes %d", s.RPCBytes)
	}
}

func TestHostIdempotentAttach(t *testing.T) {
	n := New(1)
	if n.Host("a") != n.Host("a") {
		t.Fatal("Host not idempotent")
	}
	if len(n.hosts) != 1 {
		t.Fatalf("%d hosts attached, want 1", len(n.hosts))
	}
}

// --- Fault plane --------------------------------------------------------

func TestRPCFaultRateAndDeterminism(t *testing.T) {
	run := func(seed int64) (ok, failed int) {
		n := New(seed)
		a := n.Host("a")
		n.Host("b").HandleRPC("echo", func(req []byte) ([]byte, error) { return req, nil })
		n.SetFaults(FaultProfile{RPCFailRate: 0.3})
		for i := 0; i < 1000; i++ {
			if _, err := a.Call("b", "echo", nil); err != nil {
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("fault surfaced as %v, want ErrUnreachable", err)
				}
				failed++
			} else {
				ok++
			}
		}
		return
	}
	ok, failed := run(7)
	if failed < 200 || failed > 400 {
		t.Fatalf("failed %d of 1000 at 30%% fault rate", failed)
	}
	ok2, failed2 := run(7)
	if ok != ok2 || failed != failed2 {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", ok, failed, ok2, failed2)
	}
}

func TestReplyLossRunsHandler(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	executed := 0
	n.Host("b").HandleRPC("op", func(req []byte) ([]byte, error) { executed++; return []byte("done"), nil })
	n.ScriptFaults("a", "b", FaultReplyLost)
	if _, err := a.Call("b", "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reply loss surfaced as %v", err)
	}
	if executed != 1 {
		t.Fatalf("handler ran %d times, want 1 (reply-loss executes the op)", executed)
	}
	// The script is exhausted: the next call goes through.
	if _, err := a.Call("b", "op", nil); err != nil {
		t.Fatalf("after script drained: %v", err)
	}
	if executed != 2 {
		t.Fatalf("executed %d", executed)
	}
	s := n.Stats()
	if s.RPCRepliesLost != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestScriptedRequestLossSkipsHandler(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	executed := 0
	n.Host("b").HandleRPC("op", func(req []byte) ([]byte, error) { executed++; return nil, nil })
	n.ScriptFaults("a", "b", FaultRequestLost, FaultRequestLost)
	for i := 0; i < 2; i++ {
		if _, err := a.Call("b", "op", nil); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if executed != 0 {
		t.Fatalf("handler ran %d times during request loss", executed)
	}
	// Scripted faults are directional: b -> a is unaffected.
	a.HandleRPC("op", func(req []byte) ([]byte, error) { return nil, nil })
	if _, err := n.Host("b").Call("a", "op", nil); err != nil {
		t.Fatalf("reverse direction faulted: %v", err)
	}
	if s := n.Stats(); s.RPCFaultsInjected != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLinkFaultRateIsPerLink(t *testing.T) {
	n := New(3)
	a := n.Host("a")
	for _, name := range []Addr{"b", "c"} {
		n.Host(name).HandleRPC("echo", func(req []byte) ([]byte, error) { return req, nil })
	}
	n.SetLinkFaults("a", "b", FaultProfile{RPCFailRate: 1.0})
	if _, err := a.Call("b", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("faulted link: %v", err)
	}
	if _, err := a.Call("c", "echo", nil); err != nil {
		t.Fatalf("clean link: %v", err)
	}
	n.ClearFaults()
	if _, err := a.Call("b", "echo", nil); err != nil {
		t.Fatalf("after ClearFaults: %v", err)
	}
}

func TestSelfCallExemptFromFaults(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	a.HandleRPC("echo", func(req []byte) ([]byte, error) { return req, nil })
	n.SetFaults(FaultProfile{RPCFailRate: 1.0, ReplyLossRate: 1.0})
	if _, err := a.Call("a", "echo", nil); err != nil {
		t.Fatalf("loopback faulted: %v", err)
	}
}

func TestDatagramDuplication(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	got := 0
	n.Host("b").HandleDatagram("p", func(Addr, []byte) { got++ })
	n.SetFaults(FaultProfile{DatagramDupRate: 1.0})
	a.Multicast("p", nil, []Addr{"b"})
	if got != 2 {
		t.Fatalf("deliveries %d, want 2 (duplicated)", got)
	}
	if s := n.Stats(); s.DatagramsDuplicated != 1 || s.DatagramsDelivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDatagramReordering(t *testing.T) {
	n := New(5)
	a := n.Host("a")
	var order []Addr
	for _, name := range []Addr{"b", "c", "d", "e"} {
		name := name
		n.Host(name).HandleDatagram("p", func(Addr, []byte) { order = append(order, name) })
	}
	n.SetFaults(FaultProfile{ReorderRate: 1.0})
	permuted := false
	for i := 0; i < 20 && !permuted; i++ {
		order = order[:0]
		a.Multicast("p", nil, []Addr{"b", "c", "d", "e"})
		if len(order) != 4 {
			t.Fatalf("deliveries %v", order)
		}
		for j, name := range []Addr{"b", "c", "d", "e"} {
			if order[j] != name {
				permuted = true
			}
		}
	}
	if !permuted {
		t.Fatal("20 multicasts at reorder rate 1.0, never permuted")
	}
	if s := n.Stats(); s.MulticastsReordered == 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLatencyBaseAndJitter(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.SetFaults(FaultProfile{BaseTicks: 10, JitterTicks: 5})
	var min, max uint64 = 1 << 62, 0
	for i := 0; i < 200; i++ {
		_, el, err := a.CallT("b", "echo", []byte("x"), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Two legs: each in [10, 15], so the round trip is in [20, 30].
		if el < 20 || el > 30 {
			t.Fatalf("elapsed %d outside [20,30]", el)
		}
		if el < min {
			min = el
		}
		if el > max {
			max = el
		}
	}
	if min == max {
		t.Fatalf("jitter produced no spread (always %d)", min)
	}
	if got := n.Stats().RPCVirtualTicks; got < 200*20 {
		t.Fatalf("RPCVirtualTicks %d, want >= %d", got, 200*20)
	}
}

func TestLatencyDeterministicPerLink(t *testing.T) {
	sample := func() []uint64 {
		n := New(7)
		a := n.Host("a")
		b := n.Host("b")
		b.HandleRPC("echo", func(req []byte) ([]byte, error) { return req, nil })
		n.SetFaults(FaultProfile{BaseTicks: 3, JitterTicks: 9})
		var out []uint64
		for i := 0; i < 50; i++ {
			_, el, err := a.CallT("b", "echo", nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, el)
		}
		return out
	}
	x, y := sample(), sample()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("call %d: %d vs %d — latency draws not reproducible", i, x[i], y[i])
		}
	}
}

func TestLatencySpikes(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.SetFaults(FaultProfile{BaseTicks: 1, SpikeRate: 0.2, SpikeTicks: 100})
	spiked := 0
	for i := 0; i < 300; i++ {
		_, el, err := a.CallT("b", "echo", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if el >= 100 {
			spiked++
		}
	}
	if spiked == 0 || spiked == 300 {
		t.Fatalf("spiked %d/300, want some but not all", spiked)
	}
	if n.Stats().RPCLatencySpikes == 0 {
		t.Fatal("RPCLatencySpikes not counted")
	}
}

func TestDeadlineExceededBySlowLink(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.SetLinkFaults("a", "b", FaultProfile{BaseTicks: 30})
	_, el, err := a.CallT("b", "echo", nil, 25)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if el != 25 {
		t.Fatalf("elapsed %d, want exactly the deadline 25", el)
	}
	s := n.Stats()
	if s.RPCDeadlineMisses != 1 {
		t.Fatalf("RPCDeadlineMisses %d", s.RPCDeadlineMisses)
	}
	// A generous deadline succeeds.
	if _, el, err := a.CallT("b", "echo", nil, 100); err != nil || el != 60 {
		t.Fatalf("generous deadline: elapsed %d err %v", el, err)
	}
}

func TestHangRunsHandlerButNeverReplies(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	b := n.Host("b")
	ran := 0
	b.HandleRPC("echo", func(req []byte) ([]byte, error) { ran++; return req, nil })
	n.ScriptFaults("a", "b", FaultHang)
	_, el, err := a.CallT("b", "echo", nil, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("hang under deadline: want ErrDeadline, got %v", err)
	}
	if el != 50 {
		t.Fatalf("elapsed %d, want deadline 50", el)
	}
	if ran != 1 {
		t.Fatalf("handler ran %d times, want 1 (request accepted, reply hung)", ran)
	}
	// Without a deadline a hang costs HangTicks and looks unreachable.
	n.ScriptFaults("a", "b", FaultHang)
	_, el, err = a.CallT("b", "echo", nil, 0)
	if !errors.Is(err, ErrUnreachable) || el != HangTicks {
		t.Fatalf("deadline-less hang: elapsed %d err %v", el, err)
	}
	s := n.Stats()
	if s.RPCHangs != 2 || s.RPCDeadlineMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestHangRateStuckPeer(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.SetLinkFaults("a", "b", FaultProfile{HangRate: 1.0})
	for i := 0; i < 5; i++ {
		if _, _, err := a.CallT("b", "echo", nil, 10); !errors.Is(err, ErrDeadline) {
			t.Fatalf("call %d: want ErrDeadline, got %v", i, err)
		}
	}
	// Other links are unaffected.
	if _, _, err := a.CallT("c", "echo", nil, 10); err != nil {
		t.Fatalf("a->c: %v", err)
	}
	if got := n.Stats().RPCHangs; got != 5 {
		t.Fatalf("RPCHangs %d", got)
	}
}

// TestHostHangLeavesLinkProfile: a hang is the host's state.  While it lasts
// a call into the hung host runs and never answers, drawing from the link's
// RNG as a HangRate of 1 in the link's profile would; lifting it leaves the
// link's own profile in force, and ClearFaults does not lift it.
func TestHostHangLeavesLinkProfile(t *testing.T) {
	slow := FaultProfile{BaseTicks: 40, JitterTicks: 10}
	hung, a, b, _ := echoNet(t)
	hung.SetLinkFaults("a", "b", slow)
	b.SetHung(true)
	if _, el, err := a.CallT("b", "echo", nil, 0); !errors.Is(err, ErrUnreachable) || el != HangTicks {
		t.Fatalf("a call into a hung host: elapsed %d err %v", el, err)
	}
	b.SetHung(false)
	// The same calls on a network whose link carried the hang in its profile.
	rate, ra, _, _ := echoNet(t)
	rate.SetLinkFaults("a", "b", FaultProfile{BaseTicks: 40, JitterTicks: 10, HangRate: 1})
	if _, _, err := ra.CallT("b", "echo", nil, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("HangRate 1: %v", err)
	}
	rate.SetLinkFaults("a", "b", slow)
	for i := 0; i < 5; i++ {
		_, el, err := a.CallT("b", "echo", nil, 0)
		_, want, _ := ra.CallT("b", "echo", nil, 0)
		if err != nil || el < 80 || el > 100 || el != want {
			t.Fatalf("call %d after the hang: elapsed %d err %v; the link's profile says 80..100, HangRate 1 drew %d", i, el, err, want)
		}
	}
	b.SetHung(true)
	hung.ClearFaults()
	if _, _, err := a.CallT("b", "echo", nil, 10); !errors.Is(err, ErrDeadline) {
		t.Fatalf("ClearFaults lifted the hang: %v", err)
	}
	if s := hung.Stats(); s.RPCHangs != 2 || s.RPCFaultsInjected != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLostRequestUnderDeadlineIsDeadline(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.ScriptFaults("a", "b", FaultRequestLost, FaultReplyLost)
	for i := 0; i < 2; i++ {
		_, el, err := a.CallT("b", "echo", nil, 7)
		if !errors.Is(err, ErrDeadline) || el != 7 {
			t.Fatalf("loss %d under deadline: elapsed %d err %v", i, el, err)
		}
	}
}

func TestClearFaultsClearsLatency(t *testing.T) {
	n, a, _, _ := echoNet(t)
	n.SetFaults(FaultProfile{HangRate: 1.0, BaseTicks: 10})
	n.ClearFaults()
	_, el, err := a.CallT("b", "echo", nil, 5)
	if err != nil || el != 0 {
		t.Fatalf("after ClearFaults: elapsed %d err %v", el, err)
	}
}

func TestLinkDatagramLossRate(t *testing.T) {
	n := New(7)
	a := n.Host("a")
	deliveredB, deliveredC := 0, 0
	n.Host("b").HandleDatagram("p", func(Addr, []byte) { deliveredB++ })
	n.Host("c").HandleDatagram("p", func(Addr, []byte) { deliveredC++ })
	n.SetLinkFaults("a", "b", FaultProfile{DatagramLossRate: 0.5})
	for i := 0; i < 1000; i++ {
		a.Multicast("p", nil, []Addr{"b", "c"})
	}
	// The lossy link drops roughly half; the untouched link drops nothing.
	if deliveredB < 350 || deliveredB > 650 {
		t.Fatalf("delivered %d of 1000 over a 50%% lossy link", deliveredB)
	}
	if deliveredC != 1000 {
		t.Fatalf("clean link delivered %d of 1000", deliveredC)
	}
	s := n.Stats()
	if s.DatagramsDelivered != uint64(deliveredB+deliveredC) {
		t.Fatalf("stats %+v vs delivered %d+%d", s, deliveredB, deliveredC)
	}
	if s.DatagramsDropped != uint64(2000-deliveredB-deliveredC) {
		t.Fatalf("dropped %d, want %d", s.DatagramsDropped, 2000-deliveredB-deliveredC)
	}
	if s.DatagramBytes != 0 {
		t.Fatalf("DatagramBytes = %d for empty payloads, want 0", s.DatagramBytes)
	}

	// Per-link loss is directional and seeded: same seed, same outcome.
	n2 := New(7)
	a2 := n2.Host("a")
	delivered2 := 0
	n2.Host("b").HandleDatagram("p", func(Addr, []byte) { delivered2++ })
	n2.Host("c").HandleDatagram("p", func(Addr, []byte) {})
	n2.SetLinkFaults("a", "b", FaultProfile{DatagramLossRate: 0.5})
	for i := 0; i < 1000; i++ {
		a2.Multicast("p", nil, []Addr{"b", "c"})
	}
	if delivered2 != deliveredB {
		t.Fatalf("non-deterministic link loss: %d vs %d", delivered2, deliveredB)
	}
}

func TestDatagramBytesAccounted(t *testing.T) {
	n := New(1)
	a := n.Host("a")
	n.Host("b").HandleDatagram("p", func(Addr, []byte) {})
	a.Multicast("p", []byte("12345"), []Addr{"b"})
	a.Multicast("p", []byte("123"), []Addr{"b"})
	if s := n.Stats(); s.DatagramBytes != 8 {
		t.Fatalf("DatagramBytes = %d, want 8", s.DatagramBytes)
	}
}

// TestLinkFaultsOverrideFieldByField: a link's non-zero fields override the
// network's, its zero fields inherit them — also from a later SetFaults —
// and ClearFaults clears both.
func TestLinkFaultsOverrideFieldByField(t *testing.T) {
	n, a, _, _ := echoNet(t)
	call := func(dst Addr) (uint64, error) {
		_, el, err := a.CallT(dst, "echo", nil, 0)
		return el, err
	}
	n.SetFaults(FaultProfile{BaseTicks: 10})
	n.SetLinkFaults("a", "b", FaultProfile{ReplyLossRate: 1})
	n.SetLinkFaults("a", "c", FaultProfile{BaseTicks: 30})
	if el, err := call("b"); !errors.Is(err, ErrUnreachable) || el != 20 {
		t.Fatalf("a->b: elapsed %d err %v, want its reply lost after the network's 2x10 ticks", el, err)
	}
	if el, err := call("c"); err != nil || el != 60 {
		t.Fatalf("a->c: elapsed %d err %v, want the link's 2x30 ticks", el, err)
	}
	n.SetFaults(FaultProfile{BaseTicks: 5})
	if el, err := call("b"); !errors.Is(err, ErrUnreachable) || el != 10 {
		t.Fatalf("a->b after SetFaults: elapsed %d err %v, want reply loss after 2x5 ticks", el, err)
	}
	if el, err := call("c"); err != nil || el != 60 {
		t.Fatalf("a->c after SetFaults: elapsed %d err %v, want the override's 60", el, err)
	}
	n.ClearFaults()
	for _, dst := range []Addr{"b", "c"} {
		if el, err := call(dst); err != nil || el != 0 {
			t.Fatalf("a->%s after ClearFaults: elapsed %d err %v", dst, el, err)
		}
	}
}

// TestLinkStreamIgnoresOtherLinks: the faults one link suffers, datagram
// and RPC alike, do not move when another link carries more traffic under
// faults of its own.
func TestLinkStreamIgnoresOtherLinks(t *testing.T) {
	run := func(busyC bool) []int {
		n, a, _, _ := echoNet(t)
		got := 0
		n.Host("b").HandleDatagram("p", func(Addr, []byte) { got++ })
		n.Host("c").HandleDatagram("p", func(Addr, []byte) {})
		n.SetFaults(FaultProfile{RPCFailRate: 0.3, DatagramLossRate: 0.4, DatagramDupRate: 0.3})
		dsts := []Addr{"b"}
		if busyC {
			n.SetLinkFaults("a", "c", FaultProfile{DatagramLossRate: 0.9, HangRate: 0.5})
			dsts = []Addr{"c", "b", "c"}
		}
		var out []int
		for i := 0; i < 300; i++ {
			got = 0
			a.Multicast("p", nil, dsts)
			_, err := a.Call("b", "echo", nil)
			if busyC {
				a.Call("c", "echo", nil)
			}
			ok := 0
			if err == nil {
				ok = 1
			}
			out = append(out, got, ok)
		}
		return out
	}
	quiet, busy := run(false), run(true)
	for i := range quiet {
		if quiet[i] != busy[i] {
			t.Fatalf("a->b outcome %d: %d with a->c idle, %d with a->c busy", i, quiet[i], busy[i])
		}
	}
}
