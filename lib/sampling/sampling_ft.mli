(** Per-variable sampling detector ("Sampling"): plain {!Fasttrack}
    behind a deterministic per-access coin (see {!Sampler}).
    [Detector.S]; [shares_clocks = true], so the parallel driver runs
    it under the work-stealing plan against the shared sync
    timeline. *)

include Detector.S
