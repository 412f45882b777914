package main

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/adb"
)

// laneProxies sit between the crawler's lane clients and the adb servers
// during a traced crawl. Each lane dials its own loopback proxy, which
// forwards every command over a lane connection of the farm and times it.
// Consecutive commands of one phase — post, click, pageload, netlog,
// cleanup — form one phase span, so the crawl's phase latencies are
// measured at the socket boundary without restating the crawler's command
// sequence.
type laneProxies struct {
	clients []*adb.Client // what the crawler's lanes use
	up      []*adb.Client // the proxies' connections to the devices
	lns     []net.Listener
	wg      sync.WaitGroup
}

// proxyLanes returns n lane clients, lane i reaching device i mod
// farm.Size() through a proxy that records spans under parent.
func proxyLanes(farm *adb.Farm, n int, rec *recorder, parent int64) (*laneProxies, error) {
	p := &laneProxies{}
	for i := 0; i < n; i++ {
		up, err := farm.DialLane(i)
		if err != nil {
			p.close()
			return nil, err
		}
		p.up = append(p.up, up)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		p.lns = append(p.lns, ln)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			forward(ln, up, rec, parent)
		}()
		c, err := adb.Dial(ln.Addr().String())
		if err != nil {
			p.close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// close disconnects the lanes, waits for every proxy to finish and closes
// the proxies' device connections.
func (p *laneProxies) close() {
	for _, c := range p.clients {
		c.Close()
	}
	for _, ln := range p.lns {
		ln.Close()
	}
	p.wg.Wait()
	for _, c := range p.up {
		c.Close()
	}
}

// forward serves one lane connection until the lane hangs up.
func forward(ln net.Listener, up *adb.Client, rec *recorder, parent int64) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	var phase openSpan
	var phaseName string
	var lastEnd time.Duration
	defer func() { phase.endAt(lastEnd) }()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		parts := strings.Fields(line)
		if len(parts) == 0 {
			continue
		}
		if p := phaseOf(parts[0], phaseName); p != phaseName {
			phase.endAt(lastEnd)
			phase, phaseName = rec.begin("adb."+p, parent), p
		}
		cmd := rec.begin("adb.command", phase.id)
		payload, cerr := up.Command(parts...)
		cmd.end()
		lastEnd = rec.now()
		if _, err := io.WriteString(conn, response(payload, cerr)+"\n"); err != nil {
			return
		}
	}
}

// response re-encodes a command result as the server's response line.
func response(payload string, err error) string {
	switch {
	case err != nil:
		return "ERR " + strings.TrimPrefix(err.Error(), "adb: ")
	case payload == "":
		return "OK"
	default:
		return "OK " + payload
	}
}

// phaseOf maps a command to the crawl phase it belongs to; a wait belongs
// to the phase it pauses.
func phaseOf(cmd, current string) string {
	switch cmd {
	case "post":
		return "post"
	case "click", "newaccount":
		return "click"
	case "input":
		return "pageload"
	case "netlog", "netlog-external":
		return "netlog"
	case "purge-netlog", "logcat-clear":
		return "cleanup"
	case "wait":
		if current != "" {
			return current
		}
	}
	return "lane"
}
