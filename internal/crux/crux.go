// Package crux stands in for the Chrome User Experience Report top-origin
// list the paper samples its crawl targets from (§3.2.2): a deterministic
// list of synthetic top sites, each with a category and a content-richness
// level, plus handler generation so the sites are actually servable on the
// in-process internet. Content-rich categories (News, Entertainment,
// Shopping) produce larger DOMs, which is what drives the Figure 6
// endpoint-count differences.
package crux

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"

	"repro/internal/internet"
)

// Site is one top-list origin.
type Site struct {
	Host     string
	Category string
	// Richness approximates the landing page's content volume (element
	// count scales with it).
	Richness int
}

// categories mirror the Figure 6 x-axis, with per-category richness.
var categories = []struct {
	Name     string
	Richness int
}{
	{"News", 190},
	{"Entertainment", 170},
	{"Shopping", 150},
	{"Social", 140},
	{"Sports", 130},
	{"Travel", 110},
	{"Finance", 90},
	{"Education", 75},
	{"Technology", 55},
	{"Search", 25},
}

// Categories lists the site categories in richness order.
func Categories() []string {
	out := make([]string, len(categories))
	for i, c := range categories {
		out[i] = c.Name
	}
	return out
}

// TopSites returns the first n sites of the synthetic top list. Sites
// cycle through the categories so every category is represented.
func TopSites(n int) []Site {
	out := make([]Site, 0, n)
	for i := 0; i < n; i++ {
		cat := categories[i%len(categories)]
		rank := i/len(categories) + 1
		// Small deterministic jitter so same-category sites differ.
		jitter := int(fnv32(fmt.Sprintf("%s-%d", cat.Name, rank)) % 31)
		out = append(out, Site{
			Host:     fmt.Sprintf("%s-%02d.example", strings.ToLower(cat.Name), rank),
			Category: cat.Name,
			Richness: cat.Richness + jitter,
		})
	}
	return out
}

func fnv32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// Handler serves the site's landing page: a deterministic document whose
// element count tracks the site's richness. The page and its assets are
// built once and written as strings.
func Handler(s Site) http.Handler {
	page := buildPage(s)
	script := "window.__site = '" + s.Host + "';"
	inner := "<html><head><title>" + s.Host + "</title></head><body><p>inner page</p></body></html>"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/" || r.URL.Path == "":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			io.WriteString(w, page)
		case strings.HasSuffix(r.URL.Path, ".css"):
			w.Header().Set("Content-Type", "text/css")
			io.WriteString(w, "body{margin:0}")
		case strings.HasSuffix(r.URL.Path, ".js"):
			w.Header().Set("Content-Type", "application/javascript")
			io.WriteString(w, script)
		case strings.HasSuffix(r.URL.Path, ".png"):
			w.Header().Set("Content-Type", "image/png")
			io.WriteString(w, "PNG")
		default:
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, inner)
		}
	})
}

func buildPage(s Site) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<!DOCTYPE html>
<html><head>
<meta charset="utf-8">
<meta name="category" content="%s">
<title>%s</title>
<link rel="stylesheet" href="/site.css">
<script src="/site.js"></script>
</head><body>
<header><h1>%s</h1><nav><ul>
<li><a href="/section/a">Section A</a></li>
<li><a href="/section/b">Section B</a></li>
</ul></nav></header>
<main>
`, s.Category, s.Host, s.Host)
	// One article block per ~6 richness units; each block is 6 elements.
	blocks := s.Richness / 6
	for i := 0; i < blocks; i++ {
		fmt.Fprintf(&sb, `<article class="story"><h2>Story %d</h2><p>Content of story %d on %s, with a <a href="/story/%d">link</a>.</p><img src="/img-%d.png" alt="story image"></article>
`, i, i, s.Host, i, i%3)
	}
	sb.WriteString("</main><footer><p>footer</p></footer></body></html>\n")
	return sb.String()
}

// RegisterAll registers every site on the internet.
func RegisterAll(in *internet.Internet, sites []Site) {
	for _, s := range sites {
		in.Register(s.Host, Handler(s))
	}
}
