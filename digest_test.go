package diskthru

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// TestModelDigestStable: the digest is a pure function of the binary —
// two from-scratch probes in one process agree, and ModelDigest returns
// that value on every call.
func TestModelDigestStable(t *testing.T) {
	start := time.Now()
	a, err := computeModelDigest()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model digest %s computed in %v", a, time.Since(start))
	b, err := computeModelDigest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two probes disagree: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Errorf("digest %q is not 16 hex digits", a)
	}
	if got := ModelDigest(); got != a || ModelDigest() != a {
		t.Errorf("ModelDigest() = %s, want %s", got, a)
	}
}

// TestModelDigestProbeExercisesModel: the probe's two replays must reach
// the model's interesting paths — controller-cache hits, read-ahead
// beyond the request, and pinned-region hits under FOR+HDC — or a change
// there could leave the digest unmoved.
func TestModelDigestProbeExercisesModel(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{
		Requests: 600, FileKB: 16, FootprintMB: 32, WriteFraction: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	segm, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdc, err := Run(w, cfg.WithSystem(FOR).WithHDC(256))
	if err != nil {
		t.Fatal(err)
	}
	if segm.HitRate <= 0 || segm.MediaBlocks <= segm.RequestedBlocks {
		t.Errorf("Segm probe: hit rate %v, media %d vs requested %d blocks; want hits and read-ahead",
			segm.HitRate, segm.MediaBlocks, segm.RequestedBlocks)
	}
	if hdc.HDCHitRate <= 0 {
		t.Errorf("FOR+HDC probe: HDC hit rate %v, want > 0", hdc.HDCHitRate)
	}
}

// TestFoldResultCoversEveryField perturbs each numeric field of Result
// and of one PerDisk entry in turn and requires the fold to change, so
// a field added to Result later cannot drop out of the digest unseen.
func TestFoldResultCoversEveryField(t *testing.T) {
	fold := func(r Result) uint64 {
		h := fnv.New64a()
		foldResult(h, r)
		return h.Sum64()
	}
	base := Result{PerDisk: make([]DiskStats, 2)}
	want := fold(base)
	n := 0
	var walk func(path string, v reflect.Value, apply func(func(reflect.Value)) Result)
	walk = func(path string, v reflect.Value, apply func(func(reflect.Value)) Result) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				i := i
				walk(path+"."+v.Type().Field(i).Name, v.Field(i), func(f func(reflect.Value)) Result {
					return apply(func(p reflect.Value) { f(p.Field(i)) })
				})
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s: empty slice in the base value; give it an entry", path)
			}
			walk(path+"[1]", v.Index(1), func(f func(reflect.Value)) Result {
				return apply(func(p reflect.Value) { f(p.Index(1)) })
			})
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			n++
			got := fold(apply(func(p reflect.Value) {
				switch p.Kind() {
				case reflect.Int, reflect.Int64:
					p.SetInt(1)
				case reflect.Uint64:
					p.SetUint(1)
				default:
					p.SetFloat(1)
				}
			}))
			if got == want {
				t.Errorf("perturbing %s leaves the fold unchanged", path)
			}
		default:
			t.Errorf("%s: field kind %s not covered by this test", path, v.Kind())
		}
	}
	walk("Result", reflect.ValueOf(base), func(f func(reflect.Value)) Result {
		r := base
		r.PerDisk = append([]DiskStats(nil), base.PerDisk...)
		f(reflect.ValueOf(&r).Elem())
		return r
	})
	if n < 20 {
		t.Errorf("walked only %d numeric fields; the reflection walk is broken", n)
	}
}
