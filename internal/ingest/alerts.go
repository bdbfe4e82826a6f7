package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// Alert is one anomaly notification fanned out to SSE subscribers and
// the webhook. It carries metadata only, and no route serves an
// instance's window: a consumer that wants the evidence explains from
// its own copy of the trace, calling POST /v1/explain with the alert's
// [FromTime, ToTime) span.
type Alert struct {
	Tenant        string   `json:"tenant"`
	Instance      string   `json:"instance"`
	FromTime      int64    `json:"from_time"`
	ToTime        int64    `json:"to_time"`
	SelectedAttrs []string `json:"selected_attrs,omitempty"`
	WindowRows    int      `json:"window_rows"`
	At            int64    `json:"at_unix"`
}

// subscriptionBuffer is each subscriber's channel depth. A subscriber
// that falls further behind loses alerts (counted, never blocking the
// detection path).
const subscriptionBuffer = 64

// webhookQueueDepth bounds alerts waiting for webhook delivery.
const webhookQueueDepth = 256

// Subscription is one alert listener. Receive from C; call Cancel when
// done. C is closed on Cancel and on Registry.Close.
type Subscription struct {
	// C delivers this tenant's alerts. Closed when the subscription
	// ends.
	C      <-chan Alert
	tenant string
	ch     chan Alert
	r      *Registry
	done   bool
}

// Subscribe registers an alert listener for one tenant. Alerts are
// delivered best-effort: a subscriber whose buffer is full misses
// alerts (dbsherlock_ingest_alerts_dropped_total counts them) rather
// than stalling ingestion. After Registry.Close, the returned
// subscription's channel is already closed.
func (r *Registry) Subscribe(tenant string) *Subscription {
	ch := make(chan Alert, subscriptionBuffer)
	sub := &Subscription{C: ch, tenant: tenant, ch: ch, r: r}
	r.subMu.Lock()
	defer r.subMu.Unlock()
	if r.subClosed {
		close(ch)
		sub.done = true
		return sub
	}
	r.subs[sub] = struct{}{}
	return sub
}

// Cancel ends the subscription and closes its channel. Safe to call
// more than once.
func (s *Subscription) Cancel() {
	s.r.subMu.Lock()
	defer s.r.subMu.Unlock()
	if s.done {
		return
	}
	s.done = true
	delete(s.r.subs, s)
	close(s.ch)
}

// Publish fans an alert out to the tenant's subscribers and the
// webhook queue. Detection calls it internally; it is exported so the
// serving layer's tests can drive the fan-out path without synthesizing
// a detectable anomaly.
func (r *Registry) Publish(a Alert) {
	r.subMu.Lock()
	for sub := range r.subs {
		if sub.tenant != a.Tenant {
			continue
		}
		select {
		case sub.ch <- a:
		default:
			r.m.alertsDropped.Inc()
		}
	}
	r.subMu.Unlock()
	if r.webhookCh != nil {
		select {
		case r.webhookCh <- a:
		default:
			r.m.alertsDropped.Inc()
		}
	}
}

// closeSubscriptions ends every live subscription (Registry.Close).
func (r *Registry) closeSubscriptions() {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	if r.subClosed {
		return
	}
	r.subClosed = true
	for sub := range r.subs {
		sub.done = true
		close(sub.ch)
	}
	r.subs = map[*Subscription]struct{}{}
}

// webhookLoop delivers queued alerts to the configured webhook, one at
// a time. Failures are logged and counted, never retried — the webhook
// is a nudge, the registry (List, SSE) is the source of truth.
func (r *Registry) webhookLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case a := <-r.webhookCh:
			if err := r.deliver(a); err != nil {
				r.m.webhookErr.Inc()
				r.cfg.Logger.Warn("ingest: webhook delivery failed",
					"tenant", a.Tenant, "instance", a.Instance, "err", err)
			} else {
				r.m.webhookOK.Inc()
			}
		}
	}
}

func (r *Registry) deliver(a Alert) error {
	body, err := json.Marshal(a)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.WebhookTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.Webhook, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("webhook returned %s", resp.Status)
	}
	return nil
}
