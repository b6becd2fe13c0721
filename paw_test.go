package paw

import (
	"testing"
)

func TestBuildAllMethods(t *testing.T) {
	data := GenerateTPCH(20000, 1)
	dom := data.Domain()
	hist := UniformWorkload(dom, 25, 2)
	delta := FractionOfDomain(dom, 0.01)
	for _, m := range []Method{MethodPAW, MethodQdTree, MethodKdTree} {
		l, err := Build(data, hist, Options{Method: m, MinRows: 300, Delta: delta})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if string(m) != l.Method {
			t.Errorf("layout method %q, want %q", l.Method, m)
		}
		if err := l.Validate(data, 1); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestBuildDefaultsToPAW(t *testing.T) {
	data := GenerateTPCH(5000, 3)
	hist := UniformWorkload(data.Domain(), 10, 4)
	l, err := Build(data, hist, Options{MinRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if l.Method != "paw" {
		t.Errorf("default method = %q", l.Method)
	}
}

func TestBuildValidation(t *testing.T) {
	data := GenerateTPCH(1000, 5)
	hist := UniformWorkload(data.Domain(), 5, 6)
	if _, err := Build(nil, hist, Options{MinRows: 10}); err == nil {
		t.Error("nil dataset must error")
	}
	if _, err := Build(data, hist, Options{MinRows: 0}); err == nil {
		t.Error("MinRows 0 must error")
	}
	if _, err := Build(data, hist, Options{MinRows: 10, Method: "nope"}); err == nil {
		t.Error("unknown method must error")
	}
}

func TestBuildOnSample(t *testing.T) {
	data := GenerateTPCH(30000, 7)
	hist := UniformWorkload(data.Domain(), 20, 8)
	l, err := Build(data, hist, Options{
		Method: MethodPAW, MinRows: 100, SampleRows: 3000,
		Delta: FractionOfDomain(data.Domain(), 0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, p := range l.Parts {
		sum += p.FullRows
	}
	if sum != 30000 {
		t.Errorf("routed %d of 30000 rows", sum)
	}
}

func TestSkipRouting(t *testing.T) {
	data := GenerateTPCH(5000, 9)
	hist := UniformWorkload(data.Domain(), 10, 10)
	l, err := Build(data, hist, Options{MinRows: 100, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalBytes != 0 {
		t.Error("SkipRouting must leave the layout unrouted")
	}
}

func TestEndToEndWithPlugins(t *testing.T) {
	data := GenerateOSM(15000, 8, 11)
	dom := data.Domain()
	hist := SkewedWorkload(dom, 30, 12)
	delta := FractionOfDomain(dom, 0.01)
	l, err := Build(data, hist, Options{Method: MethodPAW, MinRows: 300, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	fut := FutureWorkload(hist, delta, 1, 13)
	before := l.ScanRatio(fut.Boxes(), nil)

	if _, err := InstallPreciseDescriptors(l, data, 3); err != nil {
		t.Fatal(err)
	}
	extras := SelectExtraPartitions(l, data, hist.Extend(delta).Boxes(), data.TotalBytes()/5)
	after := l.ScanRatio(fut.Boxes(), extras)
	if after > before {
		t.Errorf("plugins increased scan ratio: %v -> %v", before, after)
	}
	lb := LowerBoundRatio(data, fut.Boxes())
	if after < lb {
		t.Errorf("scan ratio %v below the lower bound %v", after, lb)
	}
}

func TestMasterIntegration(t *testing.T) {
	data := GenerateTPCH(10000, 14)
	hist := UniformWorkload(data.Domain(), 15, 15)
	l, err := Build(data, hist, Options{MinRows: 300, Delta: FractionOfDomain(data.Domain(), 0.01)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.RouteSQL("SELECT * FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PartitionIDs()) == 0 {
		t.Error("plan routed no partitions")
	}
}

func TestEstimateDeltaFacade(t *testing.T) {
	data := GenerateTPCH(1000, 16)
	hist := UniformWorkload(data.Domain(), 40, 17)
	d, err := EstimateDelta(hist)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("estimated delta = %v", d)
	}
	ok, err := AreSimilar(hist, hist, 0)
	if err != nil || !ok {
		t.Error("a workload is 0-similar to itself")
	}
}
