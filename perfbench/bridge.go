package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

// bridgedKinds are the message kinds a proxy node forwards: subplan
// shipping, the channel protocol and advertisement exchange.
var bridgedKinds = []string{
	"exec.subplan",
	"chan.open", "chan.packet", "chan.close",
	"adv.push", "adv.pull", "adv.leave",
}

// bridge joins two in-process networks over TCP loopback using only the
// exported gateway API. Every node of one side gets a gateway on its own
// network and a proxy node of the same id on the other network; the
// proxy's handlers forward each message through a TCP client to the
// gateway, which delivers it on the far network. Replies travel back the
// same call.
type bridge struct {
	gateways []*network.Gateway
	pools    []*clientPool

	// onForward, when set (traced runs only), sees each forward's
	// interval.
	onForward atomic.Pointer[func(start, end time.Time)]
}

// newBridge exposes aNodes (living on a) on b and bNodes (living on b) on
// a.
func newBridge(a, b *network.Network, aNodes, bNodes []pattern.PeerID) (*bridge, error) {
	br := &bridge{}
	if err := br.expose(a, b, aNodes); err != nil {
		_ = br.close()
		return nil, err
	}
	if err := br.expose(b, a, bNodes); err != nil {
		_ = br.close()
		return nil, err
	}
	return br, nil
}

// expose serves every node of home over TCP and installs forwarding
// proxies for them on away.
func (br *bridge) expose(home, away *network.Network, nodes []pattern.PeerID) error {
	for _, id := range nodes {
		gw, err := network.ServeTCP(home, id, "127.0.0.1:0")
		if err != nil {
			return err
		}
		br.gateways = append(br.gateways, gw)
		pool := &clientPool{addr: gw.Addr()}
		br.pools = append(br.pools, pool)
		for _, kind := range bridgedKinds {
			away.Handle(id, kind, br.forwarder(pool, kind))
		}
	}
	return nil
}

// forwarder is a proxy handler: one timed Client.Call per message.
func (br *bridge) forwarder(pool *clientPool, kind string) network.Handler {
	return func(msg network.Message) ([]byte, error) {
		c, err := pool.get()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		reply, err := c.Call(msg.From, kind, msg.Payload)
		end := time.Now()
		if fn := br.onForward.Load(); fn != nil {
			(*fn)(start, end)
		}
		if err != nil {
			// A failed connection is not reused.
			_ = c.Close()
			return nil, err
		}
		pool.put(c)
		return reply, nil
	}
}

// close shuts every client and gateway, returning the first error.
func (br *bridge) close() error {
	var errs []error
	for _, p := range br.pools {
		errs = append(errs, p.close())
	}
	for _, gw := range br.gateways {
		errs = append(errs, gw.Close())
	}
	return errors.Join(errs...)
}

// clientPool hands out idle TCP clients to one gateway, dialling a new
// one when all are busy. A client serves one call at a time, and a
// forward may nest inside another (a subplan's result packets flow back
// while the subplan call is open), so a single shared client would
// deadlock.
type clientPool struct {
	addr string

	mu     sync.Mutex
	idle   []*network.Client
	closed bool
}

func (p *clientPool) get() (*network.Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("bridge to %s: closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return network.DialTCP(p.addr)
}

func (p *clientPool) put(c *network.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

// close closes the idle clients; clients still in a call close when put
// back.
func (p *clientPool) close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	var errs []error
	for _, c := range idle {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}
