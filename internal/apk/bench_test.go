package apk_test

import (
	"archive/zip"
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
)

var (
	imagesOnce   sync.Once
	images       [][]byte
	deflatedOnce sync.Once
	deflated     [][]byte
)

// corpusImages builds the APK image of every analysed app of the
// scale-200, seed-1 corpus: the images `staticscan -scale 200` reads.
func corpusImages(b *testing.B) [][]byte {
	imagesOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 200})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range c.Filtered() {
			if s.Broken {
				continue
			}
			img, err := corpus.BuildAPK(s)
			if err != nil {
				b.Fatal(err)
			}
			images = append(images, img)
		}
	})
	return images
}

// deflatedImages are the corpusImages packed again with every entry
// deflated, the usual form of a real APK (Pack stores its entries).
func deflatedImages(b *testing.B) [][]byte {
	imgs := corpusImages(b)
	deflatedOnce.Do(func() {
		for _, img := range imgs {
			zr, err := zip.NewReader(bytes.NewReader(img), int64(len(img)))
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			zw := zip.NewWriter(&buf)
			for _, f := range zr.File {
				rc, err := f.Open()
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(rc)
				if err != nil {
					b.Fatal(err)
				}
				w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: zip.Deflate})
				if err != nil {
					b.Fatal(err)
				}
				w.Write(body)
			}
			if err := zw.Close(); err != nil {
				b.Fatal(err)
			}
			deflated = append(deflated, buf.Bytes())
		}
	})
	return deflated
}

// BenchmarkRead reads one corpus image per iteration, in turn: B/op and
// allocs/op are the per-APK cost of the ZIP pass.
func BenchmarkRead(b *testing.B) {
	benchRead(b, corpusImages(b))
}

// BenchmarkReadDeflated is BenchmarkRead over the deflatedImages.
func BenchmarkReadDeflated(b *testing.B) {
	benchRead(b, deflatedImages(b))
}

func benchRead(b *testing.B, imgs [][]byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apk.Read(imgs[i%len(imgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadOpen is BenchmarkRead followed by the payload's Open, which
// decodes the manifest and the sdex bytecode.
func BenchmarkReadOpen(b *testing.B) {
	imgs := corpusImages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := apk.Read(imgs[i%len(imgs)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			b.Fatal(err)
		}
	}
}
