package workload

import (
	"encoding/json"
	"reflect"
	"testing"

	"catalyzer/internal/vfs"
)

const customDoc = `{
  "name": "my-fn", "language": "python",
  "configKB": 4, "taskImagePages": 2500, "rootMounts": 2,
  "initComputeMS": 80, "initSyscalls": 6000, "initMmaps": 900,
  "initFiles": 200, "initFilePages": 3000, "initHeapPages": 9000,
  "kernelObjects": 12000, "kernelThreads": 30, "kernelTimers": 10,
  "conns": {"total": 24, "hot": 16, "sockets": 4},
  "execComputeUS": 5000, "execSyscalls": 700, "execPages": 600,
  "execConns": 4
}`

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(customDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "my-fn" || s.Language != Python {
		t.Fatalf("identity: %+v", s)
	}
	if len(s.Conns) != 24 || s.HotConns() != 16 {
		t.Fatalf("conns: %d/%d", len(s.Conns), s.HotConns())
	}
	sockets := 0
	for _, c := range s.Conns {
		if c.Kind == 1 { // vfs.ConnSocket
			sockets++
		}
	}
	if sockets != 4 {
		t.Fatalf("sockets = %d", sockets)
	}
}

// TestParseSpecFullSpec pins the document format: every key of the
// custom document lands in its Spec field, and the compact conns object
// expands to sockets first, then files, the first Hot of them hot.
func TestParseSpecFullSpec(t *testing.T) {
	got, err := ParseSpec([]byte(customDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Name: "my-fn", Language: Python,
		ConfigKB: 4, TaskImagePages: 2500, RootMounts: 2,
		InitComputeMS: 80, InitSyscalls: 6000, InitMmaps: 900,
		InitFiles: 200, InitFilePages: 3000, InitHeapPages: 9000,
		KernelObjects: 12000, KernelThreads: 30, KernelTimers: 10,
		Conns:         conns("my-fn", 24, 16, 4),
		ExecComputeUS: 5000, ExecSyscalls: 700, ExecPages: 600,
		ExecConns: 4,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSpec:\n got %+v\nwant %+v", got, want)
	}
	if c := got.Conns[0]; c != (ConnSpec{Kind: vfs.ConnSocket, Path: "/srv/my-fn/io-000", Hot: true}) {
		t.Fatalf("first conn %+v", c)
	}
	if c := got.Conns[23]; c != (ConnSpec{Kind: vfs.ConnFile, Path: "/srv/my-fn/io-023", Hot: false}) {
		t.Fatalf("last conn %+v", c)
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("incomplete spec accepted")
	}
	for _, c := range []ConnsDoc{{Total: 2, Hot: 5}, {Total: 2, Sockets: 3}, {Total: -1, Hot: -2, Sockets: -2}} {
		bad := SpecDoc{Spec: Spec{Name: "x", Language: C, ConfigKB: 4, TaskImagePages: 100,
			KernelObjects: 1000}, Conns: c}
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(data); err == nil {
			t.Fatalf("conns %+v accepted", c)
		}
	}
}

func TestRegisterCustomAndUnregister(t *testing.T) {
	s, err := ParseSpec([]byte(customDoc))
	if err != nil {
		t.Fatal(err)
	}
	s.Name = "custom-test-fn"
	if err := RegisterCustom(s); err != nil {
		t.Fatal(err)
	}
	defer Unregister("custom-test-fn")
	got, err := Registry("custom-test-fn")
	if err != nil {
		t.Fatal(err)
	}
	if got.InitHeapPages != s.InitHeapPages {
		t.Fatal("registered spec differs")
	}
	// Double registration rejected.
	if err := RegisterCustom(s); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// Built-in collision rejected.
	dup := *s
	dup.Name = "c-hello"
	if err := RegisterCustom(&dup); err == nil {
		t.Fatal("built-in override accepted")
	}
	// Mutating the caller's spec does not affect the registry.
	s.InitComputeMS = 99999
	got2, _ := Registry("custom-test-fn")
	if got2.InitComputeMS == 99999 {
		t.Fatal("registry aliases caller memory")
	}
	if !Unregister("custom-test-fn") {
		t.Fatal("unregister failed")
	}
	if Unregister("custom-test-fn") {
		t.Fatal("double unregister succeeded")
	}
	if Unregister("c-hello") {
		t.Fatal("built-in unregistered")
	}
	if _, err := Registry("c-hello"); err != nil {
		t.Fatal("built-in damaged")
	}
}

func TestRegisterCustomInvalid(t *testing.T) {
	if err := RegisterCustom(&Spec{Name: "bad"}); err == nil {
		t.Fatal("invalid custom spec accepted")
	}
}
