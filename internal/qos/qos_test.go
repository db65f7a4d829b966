package qos_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// fixedClock returns a controller clock pinned to one instant, so
// buckets never refill and token arithmetic is exact.
func fixedClock() (func() time.Time, *time.Time) {
	now := time.Unix(1000, 0)
	return func() time.Time { return now }, &now
}

func TestAdmitTypedAndImmediate(t *testing.T) {
	clk, _ := fixedClock()
	ctrl := qos.NewController(nil, qos.WithClock(clk))
	tn := ctrl.Tenant("a", qos.TenantLimits{OpsPerSec: 10, OpsBurst: 2})

	for i := 0; i < 2; i++ {
		if err := tn.Admit("write", 0); err != nil {
			t.Fatalf("op %d within burst rejected: %v", i, err)
		}
	}
	start := time.Now()
	err := tn.Admit("write", 0)
	if !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("got %v, want ErrAdmission", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("admission rejection took %v; must be synchronous", d)
	}
	var ae *qos.AdmissionError
	if !errors.As(err, &ae) || ae.Tenant != "a" || ae.Reason != "ops" {
		t.Fatalf("rejection not typed: %#v", err)
	}
}

// Tokens refill at the configured rate.
func TestAdmitRefill(t *testing.T) {
	clk, now := fixedClock()
	ctrl := qos.NewController(nil, qos.WithClock(clk))
	tn := ctrl.Tenant("a", qos.TenantLimits{OpsPerSec: 10, OpsBurst: 1})
	if err := tn.Admit("op", 0); err != nil {
		t.Fatal(err)
	}
	if err := tn.Admit("op", 0); !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("bucket empty but admitted: %v", err)
	}
	*now = now.Add(100 * time.Millisecond) // exactly one token at 10/s
	if err := tn.Admit("op", 0); err != nil {
		t.Fatalf("token refilled but rejected: %v", err)
	}
}

// When the bytes bucket rejects, the already-taken op token is
// refunded: repeated bytes-rejections never misreport as ops
// exhaustion.
func TestAdmitBytesRejectRefundsOpToken(t *testing.T) {
	clk, _ := fixedClock()
	ctrl := qos.NewController(nil, qos.WithClock(clk))
	tn := ctrl.Tenant("a", qos.TenantLimits{
		OpsPerSec: 10, OpsBurst: 2,
		BytesPerSec: 1, BytesBurst: 64,
	})
	for i := 0; i < 5; i++ {
		err := tn.Admit("write", 1024)
		var ae *qos.AdmissionError
		if !errors.As(err, &ae) || ae.Reason != "bytes" {
			t.Fatalf("attempt %d: got %v, want bytes rejection (op token must be refunded)", i, err)
		}
	}
	// The ops budget is intact: a zero-byte op still fits.
	if err := tn.Admit("stat", 0); err != nil {
		t.Fatalf("ops budget leaked by bytes rejections: %v", err)
	}
}

// Enforcement off admits everything and still counts.
func TestEnforcementToggle(t *testing.T) {
	clk, _ := fixedClock()
	ctrl := qos.NewController(nil, qos.WithClock(clk))
	tn := ctrl.Tenant("a", qos.TenantLimits{OpsPerSec: 1, OpsBurst: 1})
	ctrl.SetEnforcement(false)
	for i := 0; i < 50; i++ {
		if err := tn.Admit("op", 1<<30); err != nil {
			t.Fatalf("enforcement off but rejected: %v", err)
		}
	}
	if st := tn.Stats(); st.Admitted != 50 {
		t.Fatalf("admitted count %d, want 50", st.Admitted)
	}
	ctrl.SetEnforcement(true)
	// Back on: the 1-op bucket rejects immediately.
	if err := tn.Admit("op", 0); err != nil {
		t.Fatal(err) // burst token still present
	}
	if err := tn.Admit("op", 0); !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("enforcement restored but admitted: %v", err)
	}
}

// A nil tenant admits everything (unlimited tenants cost nothing).
func TestNilTenant(t *testing.T) {
	var tn *qos.Tenant
	if err := tn.Admit("anything", 1<<40); err != nil {
		t.Fatal(err)
	}
}

func TestJain(t *testing.T) {
	if j := qos.Jain([]float64{5, 5, 5, 5}); math.Abs(j-1) > 1e-9 {
		t.Fatalf("equal shares: %v, want 1", j)
	}
	if j := qos.Jain([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-9 {
		t.Fatalf("one-taker: %v, want 0.25", j)
	}
	if j := qos.Jain(nil); j != 1 {
		t.Fatalf("empty: %v, want 1", j)
	}
}

// The qos counters land in the registry under the nvmecr_qos_* names.
func TestControllerTelemetry(t *testing.T) {
	clk, _ := fixedClock()
	reg := telemetry.New()
	ctrl := qos.NewController(reg, qos.WithClock(clk))
	tn := ctrl.Tenant("a", qos.TenantLimits{OpsPerSec: 10, OpsBurst: 1})
	_ = tn.Admit("op", 0)
	_ = tn.Admit("op", 0)
	if v := reg.Counter(qos.MetricAdmitted, telemetry.Labels{"tenant": "a"}).Value(); v != 1 {
		t.Fatalf("admitted counter %d, want 1", v)
	}
	if v := reg.Counter(qos.MetricRejected, telemetry.Labels{"tenant": "a", "reason": "ops"}).Value(); v != 1 {
		t.Fatalf("rejected counter %d, want 1", v)
	}
}

// Satellite: quota-vs-admission classification. A tenant that is at
// its mount byte quota AND out of admission tokens gets ErrNoSpace —
// quota is consulted first — never a hang, never a misclassified
// ErrAdmission. The bucket being genuinely empty is proven by a read
// (which charges admission but not quota) getting ErrAdmission.
func TestQuotaBeforeAdmissionClassification(t *testing.T) {
	clk, _ := fixedClock()
	ctrl := qos.NewController(nil, qos.WithClock(clk))
	tn := ctrl.Tenant("gamma", qos.TenantLimits{
		OpsPerSec: 1000, OpsBurst: 1000,
		BytesPerSec: 1, BytesBurst: 512, // 512 byte tokens, ~no refill
	})

	reg := telemetry.New()
	ns := vfs.NewNamespace(reg)
	mnt, err := ns.Mount(vfs.MountConfig{
		Path:       "/gamma",
		Backend:    vfs.NewMemBackend(),
		Name:       "gamma",
		QuotaBytes: 1024,
		Admission:  tn,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := ns.Open(nil, "/gamma/ckpt", vfs.O_RDWR|vfs.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the byte bucket exactly as the quota fills halfway.
	if _, err := f.Write(nil, make([]byte, 512)); err != nil {
		t.Fatalf("first write within both budgets: %v", err)
	}

	// Over quota AND over admission: the quota answer wins.
	done := make(chan error, 1)
	go func() {
		_, err := f.Write(nil, make([]byte, 600))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatalf("at quota and admission limit: got %v, want ErrNoSpace", err)
		}
		if errors.Is(err, qos.ErrAdmission) {
			t.Fatalf("misclassified as admission: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write hung: classification must be synchronous")
	}

	// Within quota but out of byte tokens: now it IS admission, and
	// the failed attempt must not leak its quota reservation.
	if _, err := f.Write(nil, make([]byte, 100)); !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("within quota, bucket empty: got %v, want ErrAdmission", err)
	}
	if used, _ := mnt.Usage(); used != 512 {
		t.Fatalf("rejected write leaked quota: bytesUsed %d, want 512", used)
	}
	if reg.Counter("nvmecr_mount_admission_rejections_total", telemetry.Labels{"mount": "gamma"}).Value() == 0 {
		t.Fatal("mount admission-rejection counter never moved")
	}

	// The bucket is genuinely empty: a read (no quota involved) is
	// rejected by admission.
	if err := f.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(nil, make([]byte, 64)); !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("read with empty byte bucket: got %v, want ErrAdmission", err)
	}

	// Unlink is exempt: a throttled tenant can always free space.
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := ns.Unlink(nil, "/gamma/ckpt"); err != nil {
		t.Fatalf("unlink must bypass admission: %v", err)
	}
	if used, _ := mnt.Usage(); used != 0 {
		t.Fatalf("unlink did not release quota: %d", used)
	}
}
