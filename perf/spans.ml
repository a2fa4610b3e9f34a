(* In-memory span store for the traced run.

   A span is (name, id, parent, trace, start, stop): [id] names the span
   so children can point at it (leaves use [-1]), [trace] is the id
   shared by every span of one pass or one storm episode, and times are
   CLOCK_MONOTONIC nanoseconds.  A span is written in one call once it
   has ended, so a fiber that began it on one carrier domain and ended
   it on another still writes it whole.

   Each domain appends to its own buffer (found through domain-local
   storage), so recording never contends across domains; the buffers
   are merged after the workload has joined every domain. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  mutable n : int;
  mutable names : string array;
  mutable ids : int array;
  mutable parents : int array;
  mutable traces : int array;
  mutable starts : int array;
  mutable stops : int array;
}

let new_buf () =
  let cap = 256 in
  {
    n = 0;
    names = Array.make cap "";
    ids = Array.make cap 0;
    parents = Array.make cap 0;
    traces = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
  }

let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()
let next_id = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let b = new_buf () in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let fresh_id () = Atomic.fetch_and_add next_id 1

let grow b =
  let cap = 2 * Array.length b.ids in
  let ext a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.names <- ext b.names "";
  b.ids <- ext b.ids 0;
  b.parents <- ext b.parents 0;
  b.traces <- ext b.traces 0;
  b.starts <- ext b.starts 0;
  b.stops <- ext b.stops 0

let record ?(id = -1) ~name ~parent ~trace start stop =
  let b = Domain.DLS.get key in
  if b.n = Array.length b.ids then grow b;
  let i = b.n in
  b.names.(i) <- name;
  b.ids.(i) <- id;
  b.parents.(i) <- parent;
  b.traces.(i) <- trace;
  b.starts.(i) <- start;
  b.stops.(i) <- stop;
  b.n <- i + 1

(* [with_span ~name ~parent ~trace f] runs [f id] inside a fresh span
   whose children use [id] as their parent. *)
let with_span ~name ~parent ~trace f =
  let id = fresh_id () in
  let t0 = now () in
  let r = f id in
  record ~id ~name ~parent ~trace t0 (now ());
  r

type span = {
  name : string;
  id : int;
  parent : int;
  trace : int;
  start : int;
  stop : int;
}

let all () =
  Mutex.protect bufs_lock (fun () ->
      List.concat_map
        (fun b ->
          List.init b.n (fun i ->
              {
                name = b.names.(i);
                id = b.ids.(i);
                parent = b.parents.(i);
                trace = b.traces.(i);
                start = b.starts.(i);
                stop = b.stops.(i);
              }))
        !bufs)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, max cb b)) else (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

type self = { span : span; self_ns : int  (** duration minus what its children cover *) }

(* Every span with its self time; a leaf's self time is its duration. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = if s.id >= 0 then Hashtbl.find_all children s.id else [] in
      { span = s; self_ns = s.stop - s.start - covered ~lo:s.start ~hi:s.stop kids })
    spans

(* Write every span as one tab-separated line: name id parent trace
   start_ns stop_ns self_ns. *)
let dump path selfs =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "name\tid\tparent\ttrace\tstart_ns\tstop_ns\tself_ns\n";
      List.iter
        (fun { span = s; self_ns } ->
          Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\t%d\n" s.name s.id s.parent s.trace
            s.start s.stop self_ns)
        selfs)
