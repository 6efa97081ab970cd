package diskthru

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
)

var (
	modelOnce   sync.Once
	modelDigest string
)

// ModelDigest identifies the simulator this binary carries: a
// 16-hex-digit hash of the Results of two fixed replays of a small
// synthetic trace, one under Segm and one under FOR+HDC. Two processes
// agree on it exactly when they produce the same result bytes for that
// probe, which is what a fleet merging their cell payloads depends on.
// It is computed once per process, on first call.
func ModelDigest() string {
	modelOnce.Do(func() {
		d, err := computeModelDigest()
		if err != nil {
			// The probe is fixed input to a deterministic simulator; an
			// error is a broken build, not a runtime condition.
			panic(fmt.Sprintf("diskthru: model digest probe failed: %v", err))
		}
		modelDigest = d
	})
	return modelDigest
}

// computeModelDigest runs the digest probe from scratch.
func computeModelDigest() (string, error) {
	w, err := SyntheticWorkload(SyntheticOptions{
		Requests: 600, FileKB: 16, FootprintMB: 32, WriteFraction: 0.2, Seed: 7,
	})
	if err != nil {
		return "", err
	}
	cfg := DefaultConfig()
	h := fnv.New64a()
	for _, c := range []Config{cfg, cfg.WithSystem(FOR).WithHDC(256)} {
		res, err := Run(w, c)
		if err != nil {
			return "", err
		}
		foldResult(h, res)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// foldResult hashes every field of r, PerDisk entries included, walking
// the struct by reflection so a field added later is covered without
// anyone remembering to list it. Floats fold as their exact bit
// patterns.
func foldResult(h hash.Hash64, r Result) {
	foldValue(h, reflect.ValueOf(r))
}

func foldValue(h hash.Hash64, v reflect.Value) {
	var word uint64
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			foldValue(h, v.Field(i))
		}
		return
	case reflect.Slice:
		foldWord(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			foldValue(h, v.Index(i))
		}
		return
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word = uint64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word = v.Uint()
	case reflect.Float32, reflect.Float64:
		word = math.Float64bits(v.Float())
	case reflect.Bool:
		if v.Bool() {
			word = 1
		}
	default:
		panic(fmt.Sprintf("diskthru: foldResult cannot hash a %s field", v.Kind()))
	}
	foldWord(h, word)
}

func foldWord(h hash.Hash64, w uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	h.Write(b[:])
}
