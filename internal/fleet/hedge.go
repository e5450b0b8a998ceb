package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Hedged reads close ROADMAP's replica-aware read-scaling item: a read
// displaced from its affine worker (saturated or breaker-open, not dead)
// is raced across two ring replicas, first acceptable answer wins, the
// loser is cancelled and reaped off the request path. Responses stay
// byte-identical either way — both arms replay the same buffered body
// against workers that compute (or cache) the same deterministic answer.

// armResult is one hedge arm's outcome.
type armResult struct {
	pick   pickResult
	arm    string // "primary" | "hedge"
	resp   *http.Response
	err    error
	cancel context.CancelFunc
}

// raceHedge dispatches the buffered request to two workers concurrently.
// On a win it returns the winning arm with its response open and its
// cancel func pending — the caller relays, then calls cancel() and
// releases the slot. The losing arm is settled here (or by a background
// reaper if still in flight). When both arms fail it returns (nil, err)
// and everything is already settled.
func (c *Coordinator) raceHedge(ctx context.Context, r *http.Request, body []byte, primary, hedge pickResult) (*armResult, error) {
	c.metrics.hedges.Inc()
	armA := &armResult{pick: primary, arm: "primary"}
	armB := &armResult{pick: hedge, arm: "hedge"}
	results := make(chan *armResult, 2)
	for _, a := range []*armResult{armA, armB} {
		armCtx, cancel := context.WithCancel(ctx)
		a.cancel = cancel
		go func(a *armResult, actx context.Context) {
			a.resp, a.err = c.forward(actx, r, a.pick.wk, body)
			results <- a
		}(a, armCtx)
	}
	var lastErr error
	for i := 0; i < 2; i++ {
		res := <-results
		if res.err == nil && res.resp.StatusCode < 500 {
			c.reportProxySuccess(res.pick.wk)
			res.pick.wk.brk.Success()
			c.metrics.hedgeWins.With(res.arm).Inc()
			if i == 0 {
				// Cancel the still-running loser and reap it off the
				// request path: its slot and breaker slot come back as soon
				// as its round trip unwinds, without delaying this response.
				loser := armA
				if res == armA {
					loser = armB
				}
				loser.cancel()
				go func() {
					c.settleArm(<-results, true)
				}()
			}
			return res, nil
		}
		c.settleArm(res, false)
		if res.err != nil {
			lastErr = fmt.Errorf("worker %s: %w", res.pick.wk.name, res.err)
		} else {
			lastErr = fmt.Errorf("worker %s answered %d", res.pick.wk.name, res.resp.StatusCode)
		}
	}
	return nil, lastErr
}

// settleArm releases a non-winning arm's resources and feeds its outcome
// to health and breaker. canceled marks a hedge loser we cancelled
// ourselves: losing a race is not a worker failure, so nothing strikes.
func (c *Coordinator) settleArm(res *armResult, canceled bool) {
	if res.resp != nil {
		io.Copy(io.Discard, io.LimitReader(res.resp.Body, 1<<12))
		res.resp.Body.Close()
	}
	res.cancel()
	c.releaseSlot(res.pick.wk)
	switch {
	case res.err == nil && res.resp.StatusCode < 500:
		// The loser finished fine just after the winner: still counts as
		// proof of life.
		c.reportProxySuccess(res.pick.wk)
		res.pick.wk.brk.Success()
	case res.err != nil && (canceled || errors.Is(res.err, context.Canceled)):
		res.pick.wk.brk.Cancel(res.pick.probe)
	case res.err != nil:
		c.reportProxyFailure(res.pick.wk, res.err)
		res.pick.wk.brk.Failure()
	default: // answered 5xx: alive but failing
		c.reportProxySuccess(res.pick.wk)
		res.pick.wk.brk.Failure()
	}
}
