(** The process-wide core count: [Domain.recommended_domain_count],
    sampled once at startup.

    Every consumer of "how many cores does this host have" — the
    parallel driver's default job count ({!Domain_pool.recommended_jobs}
    delegates here), the [ftrace --jobs] oversubscription warning, and
    the host headers of the [ftrace.obs/2], [ftrace.trace/1] and
    benchmark JSON documents — must read this helper, so the figure is
    consistent across one process and has a single override point. *)

val recommended : unit -> int
(** Always ≥ 1; constant within a process. *)
