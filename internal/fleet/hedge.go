package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Every attempt on the request path is a race: one arm, or two when the
// read is hedged. A read displaced from its affine worker (saturated or
// breaker-open, not dead) is raced across two ring replicas, first
// acceptable answer wins, the loser is cancelled and reaped off the
// request path. Responses stay byte-identical either way — both arms
// replay the same buffered body against workers that compute (or cache)
// the same deterministic answer.

// armResult is one arm's outcome.
type armResult struct {
	pick   pickResult
	arm    string // "primary" | "hedge"
	resp   *http.Response
	err    error
	ctx    context.Context
	cancel context.CancelFunc
}

// race dispatches the buffered request to every pick concurrently. On a
// win it returns the winning arm with its response open — the caller
// relays it, then settles it with settleArm. Every other arm is settled
// here, a loser still in flight by a background reaper once its cancelled
// round trip unwinds. When every arm fails it returns (nil, err) with the
// last failure, and everything is already settled.
func (c *Coordinator) race(ctx context.Context, r *http.Request, body []byte, picks []pickResult) (*armResult, error) {
	hedged := len(picks) > 1
	if hedged {
		c.metrics.hedges.Inc()
	}
	arms := make([]*armResult, len(picks))
	results := make(chan *armResult, len(picks))
	for i, p := range picks {
		a := &armResult{pick: p, arm: "primary"}
		if i > 0 {
			a.arm = "hedge"
		}
		a.ctx, a.cancel = context.WithCancel(ctx)
		arms[i] = a
		go func() {
			a.resp, a.err = c.forward(a.ctx, r, a.pick.wk, body)
			results <- a
		}()
	}
	var lastErr error
	for pending := len(arms); pending > 0; pending-- {
		a := <-results
		if a.err == nil && a.resp.StatusCode < 500 {
			if hedged {
				c.metrics.hedgeWins.With(a.arm).Inc()
			}
			for _, l := range arms {
				if l != a {
					l.cancel()
				}
			}
			for ; pending > 1; pending-- {
				go func() { c.settleArm(<-results) }()
			}
			return a, nil
		}
		lastErr = c.settleArm(a)
	}
	return nil, lastErr
}

// settleArm closes an arm's response and settles its attempt. It returns
// the arm's failure, or nil when the worker answered below 500.
func (c *Coordinator) settleArm(a *armResult) error {
	var err error
	switch {
	case a.err != nil:
		err = fmt.Errorf("worker %s: %w", a.pick.wk.name, a.err)
	case a.resp.StatusCode >= 500:
		b, _ := io.ReadAll(io.LimitReader(a.resp.Body, 4096))
		err = fmt.Errorf("worker %s answered %d: %s", a.pick.wk.name, a.resp.StatusCode, strings.TrimSpace(string(b)))
	default:
		io.Copy(io.Discard, io.LimitReader(a.resp.Body, 4096))
	}
	if a.resp != nil {
		a.resp.Body.Close()
	}
	c.settle(a.ctx, a.pick, a.err, err != nil)
	a.cancel()
	return err
}

// settle applies one attempt's outcome to its worker and returns the
// worker's in-flight slot; the request path and the dataset fan-out both
// settle every attempt here. transportErr reports that the worker never
// answered. Once ctx is done — the caller canceled or ran out of time, or
// the attempt lost a hedge race — that says nothing about the worker, so
// nothing strikes and a half-open trial slot goes back. Otherwise it
// strikes health and breaker. A worker that answered is alive, so its
// health clears; failed marks an answer that failed the request, which
// strikes the breaker.
func (c *Coordinator) settle(ctx context.Context, pick pickResult, transportErr error, failed bool) {
	w := pick.wk
	switch {
	case transportErr != nil && ctx.Err() != nil:
		w.brk.Cancel(pick.probe)
	case transportErr != nil:
		c.mu.Lock()
		c.strikeLocked(w, transportErr)
		c.mu.Unlock()
		w.brk.Failure()
	default:
		c.mu.Lock()
		c.clearLocked(w)
		c.mu.Unlock()
		if failed {
			w.brk.Failure()
		} else {
			w.brk.Success()
		}
	}
	c.releaseSlot(w)
}
