(* The traced run's instrument: a packed scheme wrapping another, which
   times every [sample_every]-th lock operation (acquire or release)
   into a leaf span under the current pass.  The replay engines and the
   mini-JVM take it like any other scheme, so the spans sit exactly on
   the boundary between the calling layer and [core]. *)

open Tl_core

let sample_every = 256

type t = {
  scheme : Scheme_intf.packed;
  parent : int ref;  (** span id of the pass the next ops belong to *)
  trace : int ref;  (** trace id shared by that pass's spans *)
}

(* Per-thread op counters, a cache line apart, indexed by the low bits
   of the thread index; two threads sharing a slot only shifts which op
   gets sampled. *)
let slots = 64
let stride = 8

let wrap (inner : Scheme_intf.packed) =
  let parent = ref (-1) and trace = ref (-1) in
  let counts = Array.make (slots * stride) 0 in
  let sampled name op env obj =
    let slot =
      (env.Tl_runtime.Runtime.descriptor.Tl_runtime.Tid.index land (slots - 1)) * stride
    in
    let c = counts.(slot) + 1 in
    counts.(slot) <- c;
    if c land (sample_every - 1) = 0 then begin
      let t0 = Spans.now () in
      op env obj;
      Spans.record ~name ~parent:!parent ~trace:!trace t0 (Spans.now ())
    end
    else op env obj
  in
  let scheme =
    {
      inner with
      Scheme_intf.acquire = sampled "core.thin.acquire" inner.Scheme_intf.acquire;
      release = sampled "core.thin.release" inner.Scheme_intf.release;
    }
  in
  { scheme; parent; trace }

(* Run [f] as one pass span named [name]; ops the wrapped scheme sees
   meanwhile become its children.  Returns the span id with [f]'s
   result. *)
let pass t ~name ~parent ~trace f =
  Spans.with_span ~name ~parent ~trace (fun id ->
      t.parent := id;
      t.trace := trace;
      (id, f ()))

let is_op (s : Spans.span) =
  s.Spans.name = "core.thin.acquire" || s.Spans.name = "core.thin.release"

(* The passes named [pass_name], split into time in [core] and the
   calling layer's own time, in ns per op.  Only one op in
   [sample_every] has a span; the others are charged the mean sampled
   cost, clock read excluded.  [ops_of_pass id] is the lock operations
   of the pass whose span id is [id]. *)
type split = { core_ns_per_op : float; self_ns_per_op : float; ops : int }

let split ~pass_name ~ops_of_pass spans =
  let passes = List.filter (fun (s : Spans.span) -> s.Spans.name = pass_name) spans in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace ids s.Spans.id ()) passes;
  let sampled =
    List.filter (fun (s : Spans.span) -> is_op s && Hashtbl.mem ids s.Spans.parent) spans
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 in
  let duration (s : Spans.span) = s.Spans.stop - s.Spans.start in
  let n = List.length sampled and sampled_ns = total duration sampled in
  let ops = total (fun (s : Spans.span) -> ops_of_pass s.Spans.id) passes in
  if n = 0 || ops = 0 then { core_ns_per_op = 0.0; self_ns_per_op = 0.0; ops }
  else
    let core =
      Float.max 0.0 ((float_of_int sampled_ns /. float_of_int n) -. Lazy.force Common.clock_ns)
    in
    let self =
      float_of_int (total duration passes - sampled_ns) -. (float_of_int (ops - n) *. core)
    in
    { core_ns_per_op = core; self_ns_per_op = self /. float_of_int ops; ops }
