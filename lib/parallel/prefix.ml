(* Parallel serial prefix (see prefix.mli and DESIGN.md §"Segmented
   prefix").

   The stealing driver's prefix used to be two sequential passes —
   route the trace into items, then replay the sync events into the
   timeline — and was its dominant Amdahl term.  Here the routing pass
   is segmented across domains, and the timeline build is pipelined
   against it on one more domain: segment k's routing byproduct is
   published through an atomic slot the moment it is complete, and the
   builder consumes the sync runs strictly in segment order, so the
   replay sees exactly the index sequence the one-shot build replays.
   Stitching the per-slot runs back (Shard.concat_routes) overlaps the
   builder's tail on the calling domain. *)

type t = {
  plan : Shard.plan;
  prepass : Shard.prepass;
  timeline : Sync_timeline.t;
  segments : int;
  route_wall : float;
  build_wall : float;
  wall : float;
}

(* Segment count: enough slack for dynamic balance over the routing
   workers, but never so many that per-segment buffer setup (slots
   growable arrays each) rivals the routing itself.  Short traces
   stay serial — domain spawn costs more than the pass. *)
let default_segments ~jobs len =
  if jobs <= 1 || len < 8192 then 1
  else min (4 * jobs) (max 2 (len / 2048))

let serial ?factor ?skip ~jobs tr =
  let (plan, prepass), route_wall =
    Obs_clock.wall_time (fun () ->
        Shard.plan_stealing_prepass ?factor ?skip ~jobs tr)
  in
  let timeline, build_wall =
    Obs_clock.wall_time (fun () ->
        Sync_timeline.build_indexed
          ~nthreads:prepass.Shard.pp_nthreads
          ~sync_indices:prepass.Shard.pp_sync_indices tr)
  in
  { plan; prepass; timeline; segments = 1; route_wall; build_wall;
    wall = route_wall +. build_wall }

let parallel ?factor ?skip ~jobs ~segments tr =
  let bounds = Trace.segment_bounds ~count:segments tr in
  let published =
    Array.init segments (fun _ -> Atomic.make (None : Shard.segment_route option))
  in
  let failed = Atomic.make false in
  (* The builder domain consumes segments in order, spinning on the
     next slot (cpu_relax) while routing runs ahead of it.  It returns
     its machine plus its *busy* seconds — time actually replaying,
     excluding the wait — which is what the prefix_frac accounting
     wants to see shrink. *)
  let builder_dom =
    Domain.spawn (fun () ->
        let b = Sync_timeline.builder_create () in
        let busy = ref 0. in
        (try
           for k = 0 to segments - 1 do
             let rec next () =
               match Atomic.get published.(k) with
               | Some r -> r
               | None ->
                 if Atomic.get failed then raise Exit;
                 Domain.cpu_relax ();
                 next ()
             in
             let r = next () in
             let (), fed =
               Obs_clock.wall_time (fun () ->
                   Shard.route_iter_sync r (fun index ->
                       Sync_timeline.feed b tr ~index))
             in
             busy := !busy +. fed
           done
         with Exit -> ());
        (b, !busy))
  in
  let route () =
    (* Routing workers pull segments dynamically; worker count is the
       caller's jobs (the builder is one extra, mostly-waiting domain
       for the duration of the prefix only). *)
    let routes, _claimed =
      Domain_pool.run_queue ~jobs ~tasks:segments (fun ~worker:_ ~task:k ->
          let lo, hi = bounds.(k) in
          let r = Shard.route_segment ?factor ?skip ~jobs ~lo ~hi tr in
          Atomic.set published.(k) (Some r);
          r)
    in
    routes
  in
  let routes, segmented_wall =
    try Obs_clock.wall_time route
    with e ->
      (* Unblock and join the builder before re-raising, so a failing
         routing task cannot leak a spinning domain. *)
      Atomic.set failed true;
      ignore (Domain.join builder_dom);
      raise e
  in
  (* Stitching runs on the calling domain while the builder drains its
     remaining segments. *)
  let (plan, prepass), concat_wall =
    Obs_clock.wall_time (fun () -> Shard.concat_routes ~jobs routes tr)
  in
  let b, build_busy = Domain.join builder_dom in
  let timeline =
    Sync_timeline.finalize b ~nthreads:prepass.Shard.pp_nthreads
  in
  (plan, prepass, timeline, segmented_wall +. concat_wall, build_busy)

let build ?(obs = Obs.disabled) ?factor ?skip ?segments ~jobs tr =
  let len = Trace.length tr in
  let segments =
    match segments with
    | Some s -> max 1 s
    | None -> default_segments ~jobs len
  in
  let start = Obs.now obs in
  let p, wall =
    Obs_clock.wall_time (fun () ->
        if segments <= 1 then serial ?factor ?skip ~jobs tr
        else begin
          let plan, prepass, timeline, route_wall, build_busy =
            parallel ?factor ?skip ~jobs ~segments tr
          in
          { plan; prepass; timeline; segments; route_wall;
            build_wall = build_busy;
            wall = 0. (* patched below *) }
        end)
  in
  let p = { p with wall } in
  if Obs.is_enabled obs then begin
    Obs.record_span obs ~name:"prefix" ~start ~duration:wall
      ~attrs:
        [ ("segments", Obs_span.Int p.segments);
          ("jobs", Obs_span.Int (max 1 jobs)) ]
      ();
    Obs.record_span obs ~name:"prefix.route" ~start ~duration:p.route_wall ();
    let ts = Sync_timeline.stats p.timeline in
    Obs.record_span obs ~name:"prefix.timeline" ~start ~duration:p.build_wall
      ~attrs:
        [ ("sync_events", Obs_span.Int ts.Sync_timeline.sync_events);
          ("checkpoints", Obs_span.Int ts.Sync_timeline.checkpoints);
          ("snapshots", Obs_span.Int ts.Sync_timeline.snapshots);
          ("snapshot_hits", Obs_span.Int ts.Sync_timeline.snapshot_hits);
          ("words", Obs_span.Int ts.Sync_timeline.words) ]
      ()
  end;
  p
