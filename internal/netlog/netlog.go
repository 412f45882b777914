// Package netlog records per-context network events, standing in for
// Chrome's NetLog on the rooted measurement device (§3.2.2): every request
// a WebView (or Custom Tab) issues is logged with its URL, method, headers
// and status, attributable to the specific browsing context that made it —
// the property that let the paper separate a page's own requests from an
// IAB's injected traffic.
package netlog

import (
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one logged network request.
type Event struct {
	Context string // the browsing context (WebView instance, CT session)
	URL     string
	Host    string
	Method  string
	Status  int
	Header  map[string]string
	// Initiator distinguishes page-driven loads from injected code.
	Initiator string // "page", "subresource", "injection", "redirector"
	Seq       int
	Time      time.Time
}

// Log is a concurrency-safe event recorder.
type Log struct {
	mu     sync.Mutex
	events []Event
	seq    int
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Record appends an event, stamping sequence order. The host is derived
// from the URL when unset.
func (l *Log) Record(e Event) {
	if e.Host == "" {
		if u, err := url.Parse(e.URL); err == nil {
			e.Host = u.Host
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	l.events = append(l.events, e)
}

// Events returns a copy of all events in record order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// ByContext returns the events of one browsing context.
func (l *Log) ByContext(ctx string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Context == ctx {
			out = append(out, e)
		}
	}
	return out
}

// Hosts returns the distinct hosts contacted (optionally by one context),
// sorted. It reads the events in place, under the lock.
func (l *Log) Hosts(ctx string) []string {
	out := []string{}
	l.mu.Lock()
	for i := range l.events {
		e := &l.events[i]
		if (ctx == "" || e.Context == ctx) && e.Host != "" {
			out = append(out, e.Host)
		}
	}
	l.mu.Unlock()
	sort.Strings(out)
	return slices.Compact(out)
}

// Purge clears the log (the crawler purges device logs between visits).
func (l *Log) Purge() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
	l.seq = 0
}

// PurgeContext removes only the events of one browsing context. Parallel
// crawl lanes sharing a device purge their own visit's context so they
// cannot wipe another lane's in-flight log.
func (l *Log) PurgeContext(ctx string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.events[:0]
	for _, e := range l.events {
		if e.Context != ctx {
			kept = append(kept, e)
		}
	}
	l.events = kept
}

// Len reports the number of events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// HostsNotUnder returns the distinct hosts that are neither the given
// first-party host nor one of its subdomains — the "endpoints contacted
// beyond the visited site" series of Figure 6.
func (l *Log) HostsNotUnder(ctx, firstParty string) []string {
	var out []string
	for _, h := range l.Hosts(ctx) {
		if h == firstParty || strings.HasSuffix(h, "."+firstParty) {
			continue
		}
		out = append(out, h)
	}
	return out
}
