package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
)

// cliqueSigns plays a K4 swap's signing the way conforming parties do on
// a clique: each leader signs its secret, every other party wraps the
// leader's signature. It returns the twelve signatures in that order.
func cliqueSigns(setup *Setup) [][]byte {
	var out [][]byte
	for i, l := range setup.Spec.Leaders {
		key := hashkey.New(setup.Secrets[i], setup.Signers[l])
		out = append(out, key.Sigs[0])
		for v := range setup.Signers {
			if v != int(l) {
				out = append(out, key.Extend(setup.Signers[v]).Sigs[0])
			}
		}
	}
	return out
}

func cliqueSetup(t *testing.T, k *Keyring) *Setup {
	t.Helper()
	return newTestSetup(t, graphgen.Clique(4), Config{Keyring: k, Rand: rand.New(rand.NewSource(8))})
}

// TestPresignStartsNothingOnOneCore: with no spare core a multi-leader
// setup starts no goroutine, and every signature is made inline.
func TestPresignStartsNothingOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKeyring(rand.New(rand.NewSource(2)))
	before := runtime.NumGoroutine()
	setup := cliqueSetup(t, k)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("setup at GOMAXPROCS=1 started %d goroutines", after-before)
	}
	cliqueSigns(setup)
	if st := k.SignStats(); st.Signs != 12 || st.Inline != 12 || st.Presigned != 0 || st.Wasted != 0 {
		t.Fatalf("signing %+v, want 12 signs, all inline", st)
	}
}

// TestPresignSameBytesOnSpareCore: with a spare core the same setup signs
// the same twelve signatures, and once the table is filled every one of
// them is taken presigned.
func TestPresignSameBytesOnSpareCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := cliqueSigns(cliqueSetup(t, NewKeyring(rand.New(rand.NewSource(2)))))

	runtime.GOMAXPROCS(max(2, prev))
	k, setup := filledCliqueSetup(t)
	got := cliqueSigns(setup)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("signature %d differs between one core and a spare core", i)
		}
	}
	if st := k.SignStats(); st.Signs != 12 || st.Presigned != 12 || st.Inline != 0 || st.Wasted != 0 {
		t.Fatalf("signing %+v, want 12 signs, all presigned", st)
	}
}

// filledCliqueSetup builds a K4 setup whose table a filler has filled.
// Earlier tests' tables may fill the backlog, in which case the setup
// signs inline; it is then built again.
func filledCliqueSetup(t *testing.T) (*Keyring, *Setup) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		k := NewKeyring(rand.New(rand.NewSource(2)))
		setup := cliqueSetup(t, k)
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			if k.SignStats().Wasted == 12 {
				return k, setup
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("no setup's table was ever filled")
	return nil, nil
}

// TestSpecExposesNoPresignData: the public swap plan — what every party,
// deviant or not, is handed — reaches no signing identity, secret or
// presigned table through any field, exported or not. A coalition could
// otherwise read the signature of a party that never signed.
func TestSpecExposesNoPresignData(t *testing.T) {
	private := map[reflect.Type]bool{
		reflect.TypeOf(hashkey.Signer{}): true,
		reflect.TypeOf(hashkey.Secret{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if private[ty] {
			t.Errorf("Spec reaches %v through %s", ty, path)
			return
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("Spec field %s has type %v, which could carry anything", path, ty)
		}
	}
	walk(reflect.TypeOf(Spec{}), "Spec")
}
