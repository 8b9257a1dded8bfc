package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* of each reproduced figure — who wins,
// by roughly what factor, where the crossovers fall — not its exact
// values: the shape is what the reproduction of §4 claims (README
// "Architecture map", internal/experiments).

func TestFig3Shape(t *testing.T) {
	r := Fig3([]int{1, 10, 30})
	c := r.Series["C xenstored"]
	ocaml := r.Series["OCaml xenstored"]
	jitsu := r.Series["Jitsu xenstored"]
	if c.Len() != 3 || ocaml.Len() != 3 || jitsu.Len() != 3 {
		t.Fatalf("series lengths: %d %d %d", c.Len(), ocaml.Len(), jitsu.Len())
	}
	// At 30 parallel sequences the ordering must be C > OCaml > Jitsu.
	cAt, oAt, jAt := c.Samples[2], ocaml.Samples[2], jitsu.Samples[2]
	if !(cAt > oAt && oAt > jAt) {
		t.Errorf("ordering at N=30: C=%v OCaml=%v Jitsu=%v", cAt, oAt, jAt)
	}
	// C must be super-linear: 30x parallelism must cost much more than
	// 30x the single-sequence time.
	if cAt < 6*c.Samples[0]*30/10 {
		t.Logf("C growth: %v at 1 vs %v at 30", c.Samples[0], cAt)
	}
	if float64(cAt) < 2.5*float64(jAt) {
		t.Errorf("C (%v) should be several times Jitsu (%v) at N=30", cAt, jAt)
	}
	if !strings.Contains(r.Output, "Jitsu xenstored") {
		t.Error("output missing series names")
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4()
	// Anchors at 16 MiB.
	vanilla := r.Series["Xen 4.4.0 (bash hotplug)@16"].Percentile(0.5)
	dash := r.Series["minimal hotplug script (dash)@16"].Percentile(0.5)
	ioctl := r.Series["inline ioctl()@16"].Percentile(0.5)
	parallel := r.Series["parallel hotplug + build@16"].Percentile(0.5)
	noconsole := r.Series["remove primary console@16"].Percentile(0.5)
	x86 := r.Series["switch ARM -> x86@16"].Percentile(0.5)
	seq := []time.Duration{vanilla, dash, ioctl, parallel, noconsole, x86}
	for i := 1; i < len(seq); i++ {
		if seq[i] >= seq[i-1] {
			t.Errorf("optimisation %d did not reduce build: %v >= %v", i, seq[i], seq[i-1])
		}
	}
	if vanilla < 520*time.Millisecond || vanilla > 820*time.Millisecond {
		t.Errorf("vanilla@16 = %v, paper ≈650ms", vanilla)
	}
	if noconsole < 80*time.Millisecond || noconsole > 170*time.Millisecond {
		t.Errorf("optimised@16 = %v, paper ≈120ms", noconsole)
	}
	if x86 > 40*time.Millisecond {
		t.Errorf("x86@16 = %v, paper ≈20ms", x86)
	}
	// Memory slope: vanilla@256 ≈ 1s.
	v256 := r.Series["Xen 4.4.0 (bash hotplug)@256"].Percentile(0.5)
	if v256 < 800*time.Millisecond || v256 > 1300*time.Millisecond {
		t.Errorf("vanilla@256 = %v, paper ≈1s", v256)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(20)
	// Ordering at every payload: localhost < dom0 < linux; mirage within
	// 0.4ms of linux; everything under ~1.2ms.
	for _, size := range []int{56, 512, 1400} {
		local := r.Series[key("localhost", size)].Percentile(0.5)
		dom0 := r.Series[key("dom0", size)].Percentile(0.5)
		linux := r.Series[key("linux", size)].Percentile(0.5)
		mirage := r.Series[key("mirage", size)].Percentile(0.5)
		if !(local < dom0 && dom0 < linux) {
			t.Errorf("size %d: ordering local=%v dom0=%v linux=%v", size, local, dom0, linux)
		}
		gap := mirage - linux
		if gap < 0 {
			gap = -gap
		}
		if gap > 400*time.Microsecond {
			t.Errorf("size %d: |mirage-linux| = %v, paper ≤ 0.4ms", size, gap)
		}
		if mirage > 1200*time.Microsecond {
			t.Errorf("size %d: mirage RTT %v too high", size, mirage)
		}
	}
	// RTT grows with payload.
	if r.Series[key("mirage", 1400)].Percentile(0.5) <= r.Series[key("mirage", 56)].Percentile(0.5) {
		t.Error("mirage RTT did not grow with payload")
	}
}

func key(name string, size int) string {
	return name + "@" + strconv.Itoa(size)
}

func TestFig9aShape(t *testing.T) {
	r := Fig9a(25)
	none := r.Series["cold start, no synjitsu"]
	vanilla := r.Series["synjitsu + vanilla toolstack"]
	opt := r.Series["synjitsu + optimised toolstack"]
	if none.Len() == 0 || vanilla.Len() == 0 || opt.Len() == 0 {
		t.Fatal("empty series")
	}
	// Without synjitsu, essentially everything exceeds 1s.
	if frac := none.FracBelow(time.Second); frac > 0.05 {
		t.Errorf("no-synjitsu: %.0f%% below 1s, want ~0%%", frac*100)
	}
	// With synjitsu + optimised, everything beats the 1s floor and the
	// bulk lands in the 300–600ms band.
	if frac := opt.FracBelow(time.Second); frac < 0.95 {
		t.Errorf("optimised: only %.0f%% below 1s", frac*100)
	}
	if p50 := opt.Percentile(0.5); p50 < 250*time.Millisecond || p50 > 600*time.Millisecond {
		t.Errorf("optimised p50 = %v, want ≈300–550ms", p50)
	}
	// Vanilla toolstack sits between.
	if !(opt.Percentile(0.5) < vanilla.Percentile(0.5) && vanilla.Percentile(0.5) < none.Percentile(0.5)) {
		t.Errorf("ordering: opt=%v vanilla=%v none=%v",
			opt.Percentile(0.5), vanilla.Percentile(0.5), none.Percentile(0.5))
	}
}

func TestFig9bShape(t *testing.T) {
	r := Fig9b(60)
	tmpfs := r.Series["docker, ext4 on tmpfs"]
	sd := r.Series["docker, ext4 on SD card"]
	dom0 := r.Series["docker in Xen dom0, ext4 on SD card"]
	if tmpfs.Min() < 500*time.Millisecond {
		t.Errorf("tmpfs min = %v, paper: ≥600ms", tmpfs.Min())
	}
	if sd.Min() < 900*time.Millisecond {
		t.Errorf("sd min = %v, paper: ≥1.1s", sd.Min())
	}
	if dom0.Percentile(0.5) <= sd.Percentile(0.5) {
		t.Errorf("dom0 (%v) not slower than native (%v)", dom0.Percentile(0.5), sd.Percentile(0.5))
	}
	if tmpfs.Percentile(0.5) >= sd.Percentile(0.5) {
		t.Error("tmpfs not faster than sd")
	}
	// Crossover vs Jitsu: even tmpfs Docker is slower than an optimised
	// Jitsu cold start (≈400ms).
	if tmpfs.Percentile(0.5) < 400*time.Millisecond {
		t.Errorf("tmpfs median %v undercuts Jitsu cold start", tmpfs.Percentile(0.5))
	}
}

func TestTable1Content(t *testing.T) {
	r := Table1()
	for _, want := range []string{"Cubieboard2", "Cubietruck", "Intel Haswell NUC", "1.43", "27.02"} {
		if !strings.Contains(r.Output, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2Content(t *testing.T) {
	r := Table2()
	for _, want := range []string{"CVE-2011-3992", "embedded: 10/10 eliminated", "linux: 8/10 eliminated", "xen-arm: 0/12 eliminated"} {
		if !strings.Contains(r.Output, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestThroughputShape(t *testing.T) {
	r := Throughput()
	out := r.Output
	if !strings.Contains(out, "queue service") {
		t.Fatalf("output:\n%s", out)
	}
	queue := measureQueueGoodput()
	// Disk-bound ceiling 57.92 Mb/s; protocol overhead keeps us below.
	if queue < 25 || queue > 60 {
		t.Errorf("queue goodput = %.1f Mb/s, want 25–58", queue)
	}
	mirage := measureBulkTCP(true)
	linux := measureBulkTCP(false)
	if mirage <= 0 || linux <= 0 {
		t.Fatalf("bulk tcp: mirage=%.1f linux=%.1f", mirage, linux)
	}
	ratio := mirage / linux
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("mirage/linux parity ratio = %.2f, paper: 'the same performance'", ratio)
	}
}

func TestHeadlineShape(t *testing.T) {
	r := Headline(5)
	armCold := r.Series["ARM cold start"].Percentile(0.5)
	armWarm := r.Series["ARM warm request"].Percentile(0.5)
	x86Cold := r.Series["x86 cold start"].Percentile(0.5)
	if armCold < 250*time.Millisecond || armCold > 600*time.Millisecond {
		t.Errorf("ARM cold = %v, paper 300–350ms", armCold)
	}
	if armWarm > 10*time.Millisecond {
		t.Errorf("ARM warm = %v, paper ≈5ms", armWarm)
	}
	if x86Cold > 60*time.Millisecond {
		t.Errorf("x86 cold = %v, paper 20–30ms", x86Cold)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, r := range []*Result{
		AblationSynjitsuMatrix(6),
		AblationPrecreatedDomains(),
		AblationHotplug(),
		AblationParallelAttach(),
		AblationDelayedDNS(6),
		AblationMergeStrategies(10),
	} {
		if r.Output == "" {
			t.Errorf("%s produced no output", r.ID)
		}
	}
}

func TestAblationFindings(t *testing.T) {
	r := AblationPrecreatedDomains()
	pooled := r.Series["pool4"].Percentile(0.5)
	cold := r.Series["pool0"].Percentile(0.5)
	if pooled >= cold/3 {
		t.Errorf("pooled claim %v should be far below cold build %v", pooled, cold)
	}
	d := AblationDelayedDNS(6)
	synDNS := d.Series["synjitsu proxying/dns"].Percentile(0.5)
	delDNS := d.Series["delay DNS until ready/dns"].Percentile(0.5)
	if synDNS >= delDNS {
		t.Errorf("synjitsu DNS latency %v should be far below delayed-DNS %v", synDNS, delDNS)
	}
}
