package dalvik

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// FuzzDecode feeds Decode mutated files whose adler32 header the harness
// rewrites, so that mutations reach the pools and classes behind the
// checksum. Decode must not panic, every error must wrap one of the
// package's sentinel errors, and a file Decode accepts and Encode accepts
// must decode back deeply equal (with its classes in name order, the order
// Encode writes them).
func FuzzDecode(f *testing.F) {
	valid, err := Encode(sampleFile(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:10])
	f.Add([]byte("SDEXgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= 10 {
			rechecksum(data)
		}
		file, err := Decode(data)
		if err != nil {
			for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrChecksum, ErrCorrupt} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("Decode: error %v wraps no sentinel error", err)
		}
		enc, err := Encode(file)
		if err != nil {
			return // Decode is more permissive than Validate
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(file)): %v", err)
		}
		sort.Slice(file.Classes, func(i, j int) bool { return file.Classes[i].Name < file.Classes[j].Name })
		if !reflect.DeepEqual(back, file) {
			t.Fatalf("Decode(Encode(file)) differs:\n got %+v\nwant %+v", back, file)
		}
	})
}
