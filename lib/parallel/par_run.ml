let map ?(obs = Obs.disabled) ~jobs f =
  let jobs = max 1 jobs in
  Obs.span obs "parallel.region"
    ~attrs:[ ("jobs", Obs_span.Int jobs) ]
    (fun () ->
      Obs_clock.wall_time (fun () ->
          Domain_pool.map ~jobs (fun shard -> f ~shard)))

let queue ?(obs = Obs.disabled) ~jobs ~tasks f =
  let jobs = max 1 jobs in
  Obs.span obs "parallel.region"
    ~attrs:[ ("jobs", Obs_span.Int jobs); ("tasks", Obs_span.Int tasks) ]
    (fun () ->
      Obs_clock.wall_time (fun () -> Domain_pool.run_queue ~jobs ~tasks f))
