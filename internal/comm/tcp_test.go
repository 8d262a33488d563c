package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// freePort grabs an ephemeral port for the rendezvous root.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// freshRootTries bounds withFreshRoot's attempts.
const freshRootTries = 3

// withFreshRoot runs world on a fresh rendezvous address and returns
// its per-rank errors (rank 0 first). freePort closes its listener
// before rank 0 binds the port, so another process can take it in
// between; when rank 0's error is EADDRINUSE the whole world is run
// again on a new port, up to freshRootTries times.
func withFreshRoot(t *testing.T, world func(root string) []error) []error {
	t.Helper()
	var errs []error
	for try := 1; try <= freshRootTries; try++ {
		errs = world(freePort(t))
		if !errors.Is(errs[0], syscall.EADDRINUSE) {
			break
		}
		t.Logf("try %d: rendezvous port taken before rank 0 bound it", try)
	}
	return errs
}

// runTCPWorld runs fn as an SPMD program over a TCP world hosted in this
// process (one goroutine per rank, real sockets in between).
func runTCPWorld(t *testing.T, n int, fn func(c *Comm) error) error {
	t.Helper()
	errs := withFreshRoot(t, func(root string) []error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			go func(rank int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[rank] = fmt.Errorf("panic: %v", p)
					}
				}()
				c, err := ConnectTCP(rank, n, root, CostModel{})
				if err != nil {
					errs[rank] = err
					return
				}
				defer c.Close()
				errs[rank] = fn(c)
			}(r)
		}
		wg.Wait()
		return errs
	})
	for r, err := range errs {
		if err != nil {
			return &RankError{Rank: r, Err: err}
		}
	}
	return nil
}

func TestTCPSendRecv(t *testing.T) {
	err := runTCPWorld(t, 3, func(c *Comm) error {
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		c.Send(next, 4, []byte(fmt.Sprintf("hello-%d", c.Rank())))
		got := string(c.Recv(prev, 4))
		want := fmt.Sprintf("hello-%d", prev)
		if got != want {
			return fmt.Errorf("got %q want %q", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectivesAndSplit(t *testing.T) {
	err := runTCPWorld(t, 4, func(c *Comm) error {
		out := c.AllreduceSumMod([]uint64{uint64(c.Rank() + 1)}, 1<<30)
		if out[0] != 10 {
			return fmt.Errorf("allreduce sum = %d, want 10", out[0])
		}
		data := c.Bcast(1, []byte{99})
		if data[0] != 99 {
			return fmt.Errorf("bcast got %v", data)
		}
		child := c.Split(c.Rank()%2, c.Rank())
		if child.Size() != 2 {
			return fmt.Errorf("child size %d", child.Size())
		}
		pair := child.AllreduceSumMod([]uint64{uint64(c.Rank())}, 1<<30)
		want := uint64(c.Rank()%2) + uint64(c.Rank()%2+2)
		if pair[0] != want {
			return fmt.Errorf("pair sum %d want %d", pair[0], want)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	const size = 1 << 20
	err := runTCPWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 31)
			}
			c.Send(1, 8, data)
			return nil
		}
		got := c.Recv(0, 8)
		if len(got) != size {
			return fmt.Errorf("len %d", len(got))
		}
		for i := range got {
			if got[i] != byte(i*31) {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPBadRankRejected(t *testing.T) {
	if _, err := ConnectTCP(5, 3, "127.0.0.1:0", CostModel{}); err == nil {
		t.Fatal("rank >= size accepted")
	}
	if _, err := ConnectTCP(0, 0, "127.0.0.1:0", CostModel{}); err == nil {
		t.Fatal("empty world accepted")
	}
}

func TestTCPReconnectAfterConnDrop(t *testing.T) {
	// A broken TCP connection must not kill the world: the send path
	// detects the dead link, the lower rank redials, the higher rank's
	// persistent accept loop admits it, and traffic continues.
	err := runTCPWorld(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		// Warm the link both ways.
		c.Send(peer, 1, []byte{byte(c.Rank())})
		if got := c.Recv(peer, 1); got[0] != byte(peer) {
			return fmt.Errorf("warmup got %v", got)
		}
		if c.Rank() == 0 {
			// Yank the live connection out from under the transport,
			// simulating a network failure.
			tt := c.transport.(*tcpTransport)
			tt.mu.Lock()
			conn := tt.conns[1]
			tt.mu.Unlock()
			conn.Close()
			// This send hits the dead conn, drops it, redials, and the
			// message arrives on the fresh connection.
			c.Send(1, 2, []byte{42})
			if got := c.Recv(1, 3); got[0] != 43 {
				return fmt.Errorf("reply got %v", got)
			}
			return nil
		}
		if got := c.Recv(0, 2); got[0] != 42 {
			return fmt.Errorf("post-drop recv got %v", got)
		}
		// Replying exercises the reconnected link in the other
		// direction (the accept loop already swapped in the new conn).
		c.Send(0, 3, []byte{43})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSendRetryCountersRecorded(t *testing.T) {
	// A send to a rank that is gone for good must burn the bounded
	// retry budget (recording each retry and its backoff in the
	// resilience counters) and escalate a structured *FaultError — not
	// retry forever and not report success.
	const maxRetries = 2
	var retries, backoff int64
	errs := withFreshRoot(t, func(root string) []error {
		peerGone := make(chan struct{})
		errs := make([]error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // rank 0: the surviving sender
			defer wg.Done()
			c, err := ConnectTCPOpts(0, 2, root, CostModel{}, TCPOptions{
				ConnectTimeout: 200 * time.Millisecond,
				MaxRetries:     maxRetries,
				BackoffBase:    time.Millisecond,
				BackoffMax:     5 * time.Millisecond,
			})
			if err != nil {
				errs[0] = err
				return
			}
			defer c.Close()
			c.EnableObs()
			c.Send(1, 1, []byte{0})
			c.Recv(1, 1)
			<-peerGone
			// The kernel accepts a small write to a socket whose peer has just
			// closed (the reset only comes back in answer to it), so the first
			// sends after the death may still "succeed" without entering the
			// retry budget. Keep sending until the fault surfaces; only the
			// send that fails retries, so the counters below stay exact.
			trySend := func() (p any) {
				defer func() { p = recover() }()
				c.Send(1, 2, []byte{7})
				return nil
			}
			var p any
			for deadline := time.Now().Add(10 * time.Second); p == nil && time.Now().Before(deadline); {
				p = trySend()
			}
			fe, ok := p.(error)
			var fault *FaultError
			switch {
			case p == nil:
				errs[0] = fmt.Errorf("sends to dead rank kept succeeding")
			case !ok:
				errs[0] = fmt.Errorf("panic was not an error: %v", p)
			case !errors.As(fe, &fault) || fault.To != 1 || fault.Attempts != maxRetries+1:
				errs[0] = fmt.Errorf("want FaultError to rank 1 after %d attempts, got %v", maxRetries+1, fe)
			}
			s := c.ObsSnapshot()
			retries = s.Counter(obs.SendRetries)
			backoff = s.Counter(obs.BackoffNanos)
		}()
		go func() { // rank 1: connects, exchanges once, and dies
			defer wg.Done()
			c, err := ConnectTCP(1, 2, root, CostModel{})
			if err != nil {
				errs[1] = err
				close(peerGone)
				return
			}
			c.Send(0, 1, []byte{1})
			c.Recv(0, 1)
			c.Close()
			close(peerGone)
		}()
		wg.Wait()
		return errs
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if retries != maxRetries {
		t.Fatalf("send-retries = %d, want %d", retries, maxRetries)
	}
	if backoff <= 0 {
		t.Fatal("no backoff time recorded")
	}
}

func TestTCPPeerDeathFailsLoudly(t *testing.T) {
	// Rank 1 closes immediately; rank 0's blocking recv must panic
	// (captured as RankError), not hang.
	errs := withFreshRoot(t, func(root string) []error {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[0] = fmt.Errorf("panic: %v", p)
				}
			}()
			c, err := ConnectTCP(0, 2, root, CostModel{})
			if err != nil {
				errs[0] = err
				return
			}
			// peer is gone; this recv can never be satisfied. Close our
			// endpoint from another goroutine once the peer's death is
			// certain, so take() wakes up and panics.
			go func() {
				c.Close()
			}()
			c.Recv(1, 1)
		}()
		go func() {
			defer wg.Done()
			c, err := ConnectTCP(1, 2, root, CostModel{})
			if err != nil {
				errs[1] = err
				return
			}
			c.Close() // die without sending
		}()
		wg.Wait()
		return errs
	})
	if errs[0] == nil {
		t.Fatal("recv from dead peer returned successfully")
	}
	if errs[1] != nil {
		t.Fatalf("rank 1 failed: %v", errs[1])
	}
}
