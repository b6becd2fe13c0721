package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/router"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// fleet builds the binaries a test runs into one temporary directory and
// writes its inputs there.
type fleet struct {
	t   *testing.T
	dir string
	bin map[string]string
}

func newFleet(t *testing.T, names ...string) *fleet {
	f := &fleet{t: t, dir: t.TempDir(), bin: map[string]string{}}
	for _, name := range names {
		path := filepath.Join(f.dir, name)
		if out, err := exec.Command("go", "build", "-o", path, "paw/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		f.bin[name] = path
	}
	return f
}

// dataFile writes d to the fleet's directory as name.
func (f *fleet) dataFile(name string, d *dataset.Dataset) string {
	f.t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		f.t.Fatal(err)
	}
	path := filepath.Join(f.dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		f.t.Fatal(err)
	}
	return path
}

// build runs pawcli build -store on d, as name.pawd, and returns the paths
// of the dataset, layout and store it wrote.
func (f *fleet) build(d *dataset.Dataset, name string) (dataPath, layoutPath, store string) {
	f.t.Helper()
	dataPath = f.dataFile(name+".pawd", d)
	layoutPath, store = filepath.Join(f.dir, name+".pawl"), filepath.Join(f.dir, name)
	cmd := exec.Command(f.bin["pawcli"], "build", "-in", dataPath, "-method", "kd-tree", "-layout", layoutPath,
		"-store", store, "-report", filepath.Join(f.dir, name+".json"), "-log-level", "warn")
	if out, err := cmd.CombinedOutput(); err != nil {
		f.t.Fatalf("pawcli build: %v\n%s", err, out)
	}
	return dataPath, layoutPath, store
}

// start runs a binary until it prints its first line, which ends "on ADDR"
// or "on ADDR (…)", and returns ADDR and a func that sends the process sig
// and waits for it, killing it after 2 s and then reporting that it was
// still running.
func (f *fleet) start(name string, args ...string) (addr string, stop func(sig os.Signal) error) {
	f.t.Helper()
	cmd := exec.Command(f.bin[name], args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		f.t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		f.t.Fatal(err)
	}
	stop = func(sig os.Signal) error {
		cmd.Process.Signal(sig)
		done := make(chan struct{})
		go func() {
			cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-time.After(2 * time.Second):
			cmd.Process.Kill()
			<-done
			return fmt.Errorf("%s was still running 2 s after %v", name, sig)
		}
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	at := strings.LastIndex(line, " on ")
	if err != nil || at < 0 {
		stop(os.Kill)
		f.t.Fatalf("%s printed %q, %v\n%s", name, line, err, stderr.String())
	}
	return strings.Fields(line[at+4:])[0], stop
}

// TestInterruptClosesSessions: pawmaster exits within 2 s of SIGINT with a
// session still open, since closing the master closes every session it
// serves: an idle client's, and with -membership the session a joined
// pawworker beats on.
func TestInterruptClosesSessions(t *testing.T) {
	f := newFleet(t, "pawcli", "pawworker", "pawmaster")
	_, layoutPath, store := f.build(dataset.TPCHLike(4_000, 5), "l")
	for _, member := range []bool{false, true} {
		waddr, wstop := f.start("pawworker", "-store", store, "-layout", layoutPath, "-listen", "127.0.0.1:0")
		defer wstop(os.Kill)
		args := []string{"-layout", layoutPath, "-workers", waddr, "-listen", "127.0.0.1:0", "-log-level", "warn"}
		if member {
			args = append(args, "-membership")
		}
		addr, stop := f.start("pawmaster", args...)
		defer stop(os.Kill)
		if member {
			_, jstop := f.start("pawworker", "-join", addr, "-listen", "127.0.0.1:0", "-log-level", "warn")
			defer jstop(os.Kill)
		} else {
			c, err := dist.DialMux(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Query("SELECT * FROM lineitem WHERE l_quantity >= 10"); err != nil {
				t.Fatal(err)
			}
		}
		if err := stop(os.Interrupt); err != nil {
			t.Errorf("-membership=%v: %v", member, err)
		}
	}
}

// TestRefusesLayoutWithoutNames: a layout built by calling a builder directly
// carries no column names, and pawmaster, which routes SQL by the names its
// layout file carries, exits 1 on it instead of serving.
func TestRefusesLayoutWithoutNames(t *testing.T) {
	f := newFleet(t, "pawmaster")
	data := dataset.TPCHLike(2_000, 5)
	l := kdtree.Build(data, data.Sample(500, 6), data.Domain(), kdtree.Params{MinRows: 50})
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(f.dir, "unnamed.pawl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(f.bin["pawmaster"], "-layout", path, "-workers", "127.0.0.1:1", "-listen", "127.0.0.1:0").CombinedOutput()
	if code := exitCode(err); code != 1 || !strings.Contains(string(out), "column names") {
		t.Fatalf("exit %d with %q, want exit 1 naming the column names", code, out)
	}
}

// TestDriftRefusesLayoutWithoutRecipe: drift rebuilds a region with the
// recipe its layout carries, so `pawmaster -drift` on a layout with names and
// QH but no recipe — bmin and the sampling rate zeroed, as a builder called
// directly leaves them — exits 1 naming the recipe instead of serving.
func TestDriftRefusesLayoutWithoutRecipe(t *testing.T) {
	f := newFleet(t, "pawcli", "pawmaster")
	_, layoutPath, _ := f.build(dataset.TPCHLike(20_000, 5), "bare")
	l, err := layout.ReadFile(layoutPath)
	if err != nil {
		t.Fatal(err)
	}
	l.MinRows, l.SampleRate = 0, 0
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(layoutPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(f.bin["pawmaster"], "-layout", layoutPath, "-workers", "127.0.0.1:1",
		"-listen", "127.0.0.1:0", "-log-level", "warn", "-drift").CombinedOutput()
	if code := exitCode(err); code != 1 || !strings.Contains(string(out), "no build recipe (bmin and sampling rate)") {
		t.Fatalf("exit %d with %q, want exit 1 naming the recipe", code, out)
	}
}

func exitCode(err error) int {
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

// TestWorkersServeTheStoreDir runs the binaries as a fleet is run: pawcli
// build -store writes the layout and partition files, two pawworker
// processes serve that one directory, and a pawmaster booted from the
// layout file alone places on their addresses. Every query of a 50-box
// workload, sent over the client protocol, equals the dataset oracle's
// count. Then one partition's file is swapped for the same partition's file
// from another dataset's store: the queries that touch it fail naming it,
// and none returns a wrong count.
func TestWorkersServeTheStoreDir(t *testing.T) {
	f := newFleet(t, "pawcli", "pawworker", "pawmaster")
	data := dataset.TPCHLike(20_000, 5)
	_, layoutPath, store := f.build(data, "same")
	_, _, otherStore := f.build(dataset.TPCHLike(20_000, 6), "other")
	l, err := layout.ReadFile(layoutPath)
	if err != nil {
		t.Fatal(err)
	}
	boxes := workload.Uniform(data.Domain(), workload.Defaults(50, 8)).Boxes()
	boxes = append(boxes, data.Domain())

	// serve starts two workers on store and a master placing on them, runs
	// every box through it, and returns each query's error (nil: exact).
	serve := func() []error {
		var addrs []string
		for w := 0; w < 2; w++ {
			addr, stop := f.start("pawworker", "-store", store, "-layout", layoutPath, "-listen", "127.0.0.1:0")
			defer stop(os.Kill)
			addrs = append(addrs, addr)
		}
		addr, stop := f.start("pawmaster", "-layout", layoutPath, "-workers", strings.Join(addrs, ","),
			"-listen", "127.0.0.1:0", "-log-level", "warn")
		defer stop(os.Kill)
		c, err := dist.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		errs := make([]error, len(boxes))
		for i, b := range boxes {
			resp, err := c.Query(sqlrew.BoxSQL(data.Names(), b))
			if want := data.CountInBox(b, nil); err == nil && resp.Rows != want {
				err = fmt.Errorf("%d rows, the dataset holds %d", resp.Rows, want)
			}
			errs[i] = err
		}
		return errs
	}
	for i, err := range serve() {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	swapped := l.Parts[len(l.Parts)/2].ID
	name := fmt.Sprintf("%d.pawc", swapped)
	payload, err := os.ReadFile(filepath.Join(otherStore, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, name), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("partition %d", swapped)
	rm, err := router.NewMaster(l, l.Names)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, err := range serve() {
		plan, perr := rm.RouteSQL(sqlrew.BoxSQL(data.Names(), boxes[i]))
		if perr != nil {
			t.Fatal(perr)
		}
		touches := slices.Contains(plan.PartitionIDs(), swapped)
		if touches {
			hit++
		}
		switch {
		case touches && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("query %d touches the swapped partition: %v, want an error naming %s", i, err, want)
		case !touches && err != nil:
			t.Errorf("query %d: %v", i, err)
		}
	}
	if hit == 0 {
		t.Fatalf("no query touches partition %d", swapped)
	}
}

// TestDriftMigratesFromTheWorkers runs TestWorkersServeTheStoreDir's fleet
// with `pawmaster -drift`, which reads no dataset: on a PAW layout of small
// scope, point statements set the cost baseline, then wide statements outside
// the scope are sent until /metrics reads dist_layout_epoch 1 — the master
// read the drifted region back from the workers, rebuilt it and migrated them
// onto the patch. Every answer before, during and after equals the dataset's.
func TestDriftMigratesFromTheWorkers(t *testing.T) {
	f := newFleet(t, "pawcli", "pawworker", "pawmaster")
	data := dataset.TPCHLike(24_000, 7)
	dataPath := f.dataFile("drift.pawd", data)
	layoutPath, store := filepath.Join(f.dir, "drift.pawl"), filepath.Join(f.dir, "drift")
	if out, err := exec.Command(f.bin["pawcli"], "build", "-in", dataPath, "-seed", "7", "-delta", "0.02",
		"-layout", layoutPath, "-store", store, "-report", filepath.Join(f.dir, "drift.json"), "-log-level", "warn").CombinedOutput(); err != nil {
		t.Fatalf("pawcli build: %v\n%s", err, out)
	}
	l, err := layout.ReadFile(layoutPath)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := router.NewMaster(l, l.Names)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for w := 0; w < 2; w++ {
		addr, stop := f.start("pawworker", "-store", store, "-layout", layoutPath, "-listen", "127.0.0.1:0")
		defer stop(os.Kill)
		addrs = append(addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metrics := ln.Addr().String()
	ln.Close()
	addr, stop := f.start("pawmaster", "-layout", layoutPath, "-workers", strings.Join(addrs, ","),
		"-listen", "127.0.0.1:0", "-metrics", metrics, "-drift", "-log-level", "warn")
	defer stop(os.Kill)
	c, err := dist.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(sql string) {
		t.Helper()
		resp, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan, err := rm.RouteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, rp := range plan.Ranges {
			want += data.CountInBox(rp.Range, nil)
		}
		if resp.Rows != want {
			t.Fatalf("%s: %d rows, the dataset holds %d", sql, resp.Rows, want)
		}
	}
	epoch := func() string {
		t.Helper()
		resp, err := http.Get("http://" + metrics + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == dist.MetricLayoutEpoch {
				return f[1]
			}
		}
		return ""
	}
	for i := 0; i < 300; i++ {
		send(fmt.Sprintf("SELECT * FROM lineitem WHERE l_quantity >= %d AND l_quantity <= %d AND l_shipdate >= %d AND l_shipdate <= %d",
			1+i%50, 1+i%50, 7*i, 7*i))
	}
	wide := func(i int) string {
		return fmt.Sprintf("SELECT * FROM lineitem WHERE l_discount >= 0.09 AND l_shipdate >= %d AND l_shipdate <= %d", 3*i, 3*i+400)
	}
	migrated := -1
	for i := 0; i < 2000 && migrated < 0; i++ {
		send(wide(i))
		if i%32 == 31 && epoch() == "1" {
			migrated = i
		}
	}
	if migrated < 0 {
		t.Fatalf("2000 out-of-scope statements and dist_layout_epoch reads %q, want 1", epoch())
	}
	for i := 0; i <= migrated; i += 7 {
		send(wide(i) + " AND l_tax >= 0")
	}
	t.Logf("migrated after %d out-of-scope statements", migrated+1)
}
