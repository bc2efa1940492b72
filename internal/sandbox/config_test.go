package sandbox

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/oci"
	"catalyzer/internal/simtime"
	"catalyzer/internal/workload"
)

// configCharge is what ParseConfig charges for spec's document.
func configCharge(t *testing.T, m *Machine, spec *workload.Spec) simtime.Duration {
	t.Helper()
	_, data, err := oci.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m.Env.Cost.ConfigParsePerKB * simtime.Duration((len(data)+1023)/1024)
}

// The configuration cache key covers every Spec field oci.Generate reads:
// perturbing any one field either leaves the document's bytes as they
// were or changes the key. A new Generate input the key misses fails
// here.
func TestConfigKeyCoversGenerateInputs(t *testing.T) {
	base := workload.MustGet("java-specjbb")
	_, want, err := oci.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(*base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		spec := *base
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("field %s: no perturbation for kind %s", field.Name, v.Kind())
		}
		_, got, err := oci.Generate(&spec)
		if err != nil {
			t.Fatalf("field %s: %v", field.Name, err)
		}
		if !bytes.Equal(got, want) && configKeyOf(&spec) == configKeyOf(base) {
			t.Errorf("field %s changes the configuration document but not its cache key", field.Name)
		}
	}
}

// Re-registering a custom function under the same name with a bigger
// configuration charges the new document's size on the next boot.
func TestParseConfigChargesReregisteredSize(t *testing.T) {
	spec := *workload.MustGet("c-hello")
	spec.Name = "config-reregistered"
	t.Cleanup(func() { workload.Unregister(spec.Name) })
	m := NewMachine(costmodel.Default())
	var charged []simtime.Duration
	for _, kb := range []int{4, 12} {
		spec.ConfigKB = kb
		workload.Unregister(spec.Name)
		if err := workload.RegisterCustom(&spec); err != nil {
			t.Fatal(err)
		}
		for boot := 0; boot < 2; boot++ {
			got, err := workload.Registry(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Now()
			if err := ParseConfig(m, got); err != nil {
				t.Fatal(err)
			}
			d := m.Now() - before
			if want := configCharge(t, m, got); d != want {
				t.Fatalf("ConfigKB %d, boot %d: charged %v, want %v", kb, boot, d, want)
			}
			charged = append(charged, d)
		}
	}
	if charged[2] <= charged[0] {
		t.Fatalf("a 12 KB configuration charged %v, a 4 KB one %v", charged[2], charged[0])
	}
}

// A configuration that fails is not remembered: every boot of it
// generates the document again and fails, and a document that stops
// failing is parsed and charged on the next boot.
func TestParseConfigErrorNotCached(t *testing.T) {
	errBroken := errors.New("broken configuration")
	broken := true
	calls := 0
	generateConfig = func(spec *workload.Spec) (*oci.Spec, []byte, error) {
		calls++
		if broken {
			return nil, nil, errBroken
		}
		return oci.Generate(spec)
	}
	t.Cleanup(func() { generateConfig = oci.Generate })
	m := NewMachine(costmodel.Default())
	for boot := 0; boot < 2; boot++ {
		_, _, err := BootCold(m, workload.MustGet("c-hello"), newRootFS(), GVisorOptions(m))
		if !errors.Is(err, errBroken) {
			t.Fatalf("boot %d: err = %v, want %v", boot, err, errBroken)
		}
	}
	if calls != 2 {
		t.Fatalf("two failed boots generated the document %d times, want 2", calls)
	}
	broken = false
	before := m.Now()
	spec := workload.MustGet("c-hello")
	if err := ParseConfig(m, spec); err != nil {
		t.Fatal(err)
	}
	if d, want := m.Now()-before, configCharge(t, m, spec); d != want {
		t.Fatalf("charged %v after the document was repaired, want %v", d, want)
	}
}
