"""Statistical watch-time modeling: bucketized binomial and geometric heads
with closed-form expectation estimators, a small trainable predictor,
behavior simulators, and ranking metrics."""
