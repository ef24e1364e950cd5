(** Machine-readable benchmark records (the [--json FILE] mode).

    Experiments push one {!record} per (workload, tool, jobs)
    measurement; [main.ml] writes the accumulated records — plus host
    metadata needed to interpret them (core count, OCaml version) —
    to the file named by [--json].  The output is plain JSON emitted
    by hand (no JSON library in the image), shaped as

    {v
    { "host": { "cores": 4, "ocaml": "5.1.1", "profile": "release", ... },
      "records": [ { "experiment": "parallel", ... }, ... ] }
    v} *)

type record = {
  experiment : string;  (** e.g. ["parallel"], ["table1"] *)
  workload : string;
  tool : string;        (** detector name *)
  jobs : int;           (** worker count; 1 = sequential driver *)
  plan : string;
      (** which parallel plan produced the row:
          [Shard.kind_to_string] (["static"] / ["stealing"]) for
          parallel rows, ["seq"] for sequential ones — so readers
          can compare like with like across the plan switch *)
  events : int;         (** trace length *)
  elapsed : float;      (** seconds (wall for parallel runs) *)
  throughput : float;   (** events / elapsed second; 0 when elapsed
                            did not resolve *)
  slowdown : float;     (** elapsed / bare-replay time *)
  speedup : float;      (** sequential elapsed / this elapsed; 1.0 for
                            the sequential row itself *)
  warnings : int;
  imbalance : float;
      (** max-over-mean of per-shard owned-access counts
          ([Driver.result.imbalance]); 1.0 for sequential rows.  The
          "measure" half of the ROADMAP work-stealing item: CI
          artifacts now carry the shard balance of every parallel
          measurement. *)
  static_elim : bool;
      (** whether the run skipped statically-certified accesses
          ([Config.static_elim]); [false] for every pre-existing
          experiment, toggled by the ["elimination"] sweep *)
  dropped_frac : float;
      (** fraction of the trace's events eliminated before the
          detector ([Stats.eliminated / trace length]); [0.] when
          [static_elim] is false *)
  prefix_wall : float;
      (** wall seconds of the stealing plan's (parallelized) prefix —
          [Driver.result.prefix_wall] of the best run; [0.] for rows
          with no such phase (seq, static plan, other experiments),
          and the field is then omitted from the JSON *)
  prefix_frac : float;
      (** [prefix_wall / wall] of the same run — the measured Amdahl
          serial fraction [s] of that cell *)
  amdahl_ceiling : float;
      (** the speedup ceiling [1 / (s1 + (1 - s1) / jobs)] implied by
          the {e jobs = 1} stealing row's measured [prefix_frac] [s1]
          of the same workload: what this cell could reach at best if
          the prefix were the only serial part.  [0.] where
          inapplicable. *)
  rate : float;
      (** sampling-tier rows only: the configured sampling rate of
          this cell.  [-1.] (omitted from the JSON) for every other
          experiment.  The rate is also encoded in [tool]
          (["Sampling@0.10"]) so readers keying on [tool] distinguish
          sweep points. *)
  recall : float;
      (** sampling-tier rows only: fraction of the FastTrack oracle's
          racy variables this cell's run warned about.  [-1.]
          (omitted) when not a sampling row or when the workload has
          no oracle races to recall. *)
  static_ms : float;
      (** elimination rows only: wall milliseconds of one uncached
          [Static.analyze] of the workload's program — the pre-pass
          the row's [elapsed] and [speedup] leave out.  [-1.]
          (omitted from the JSON) for every other row. *)
}

val throughput : events:int -> elapsed:float -> float
(** [events /. elapsed], or [0.] when [elapsed] is not positive —
    the canonical way experiments fill the [throughput] field. *)

val add : record -> unit
(** Append to the global accumulator. *)

val recorded : unit -> record list
(** All records pushed so far, in push order. *)

val reset : unit -> unit

val write : scale:int -> repeat:int -> string -> unit
(** [write ~scale ~repeat path] dumps host metadata — core count,
    OCaml version, word size, the dune build profile the harness was
    built under — and every accumulated record to [path].  A host
    with fewer than 4 cores only writes parallel records under
    [--allow-few-cores], so [cores] alone tells a reader whether the
    speedup cells are multicore measurements. *)
