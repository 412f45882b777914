package dalvik

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode feeds Decode mutated files whose adler32 header the harness
// rewrites, so that mutations reach the pools and classes behind the
// checksum. Decode must not panic, every error must wrap one of the
// package's sentinel errors, no accepted file may define a class or a
// method within a class twice, and a file Decode accepts and Encode
// accepts must decode back deeply equal.
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
		classes := make(map[string]bool, len(file.Classes))
		for i := range file.Classes {
			c := &file.Classes[i]
			methods := make(map[MethodRef]bool, len(c.Methods))
			for j := range c.Methods {
				ref := c.Methods[j].Ref(c.Name)
				if methods[ref] {
					t.Fatalf("Decode accepted method %v defined twice", ref)
				}
				methods[ref] = true
			}
			if classes[c.Name] {
				t.Fatalf("Decode accepted class %q defined twice", c.Name)
			}
			classes[c.Name] = true
		}
		enc, err := Encode(file)
		if err != nil {
			return // Validate also rejects empty names and incomplete operands
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(file)): %v", err)
		}
		if !reflect.DeepEqual(back, file) {
			t.Fatalf("Decode(Encode(file)) differs:\n got %+v\nwant %+v", back, file)
		}
	})
}
