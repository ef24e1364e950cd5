type sample = {
  at : float;
  minor_words : float;
  major_words : float;
  heap_words : int;
  top_heap_words : int;
  live_words : int;
  minor_collections : int;
  major_collections : int;
  full : bool;
}

type t = {
  epoch : float;
  every : int;
  heap_walk : bool;
  mutable recorded : sample list;  (* reverse chronological *)
  mu : Mutex.t;
}

let create ?(every = 65536) ?(heap_walk = false) () =
  { epoch = Unix.gettimeofday ();
    every = max 1 every;
    heap_walk;
    recorded = [];
    mu = Mutex.create () }

let every t = t.every

let of_stat t ~full (st : Gc.stat) =
  { at = Unix.gettimeofday () -. t.epoch;
    minor_words = st.Gc.minor_words;
    major_words = st.Gc.major_words;
    heap_words = st.Gc.heap_words;
    top_heap_words = st.Gc.top_heap_words;
    live_words = (if full then st.Gc.live_words else 0);
    minor_collections = st.Gc.minor_collections;
    major_collections = st.Gc.major_collections;
    full }

let push t s =
  Mutex.lock t.mu;
  t.recorded <- s :: t.recorded;
  Mutex.unlock t.mu

let sample_now t = push t (of_stat t ~full:false (Gc.quick_stat ()))

let sample_final t =
  if t.heap_walk then push t (of_stat t ~full:true (Gc.stat ()))
  else sample_now t

let samples t =
  Mutex.lock t.mu;
  let ss = t.recorded in
  Mutex.unlock t.mu;
  List.rev ss

let to_json t =
  Obs_json.arr
    (List.map
       (fun s ->
         Obs_json.obj
           [ ("at_s", Obs_json.float s.at);
             ("minor_words", Obs_json.float s.minor_words);
             ("major_words", Obs_json.float s.major_words);
             ("heap_words", Obs_json.int s.heap_words);
             ("top_heap_words", Obs_json.int s.top_heap_words);
             ("live_words", Obs_json.int s.live_words);
             ("minor_collections", Obs_json.int s.minor_collections);
             ("major_collections", Obs_json.int s.major_collections);
             ("full", Obs_json.bool s.full) ])
       (samples t))
