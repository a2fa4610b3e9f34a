(** The locking-scheme interface.

    Every implementation — the thin locks of the paper, its Fig. 6
    variants, and the JDK 1.1.1 / IBM 1.1.2 baselines — exposes the
    same five Java monitor operations over heap objects, so workloads,
    tests and benchmarks are scheme-generic.

    Two forms are provided.  The module type {!S} gives direct calls
    (the compiler may inline the fast paths — the paper's "Inline"
    configuration); {!packed} wraps a scheme as a record of closures
    (the paper's "FnCall" configuration), which is what the generic
    harness uses. *)

module type S = sig
  type ctx
  (** Per-run state: monitor table, caches, statistics.  Independent
      contexts share nothing. *)

  val name : string

  val create : Tl_runtime.Runtime.t -> ctx

  val acquire : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Lock the object ([monitorenter]).  Re-entrant. *)

  val release : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Unlock the object ([monitorexit]).
      @raise Tl_monitor.Fatlock.Illegal_monitor_state if the calling
      thread does not hold the lock. *)

  val wait : ?timeout:float -> ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Java [Object.wait]: release fully, block until notified (or
      timeout), re-acquire.
      @raise Tl_monitor.Fatlock.Illegal_monitor_state if not owner. *)

  val notify : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  val notify_all : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit

  val stats : ctx -> Lock_stats.t

  val holds : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> bool
  (** Does the calling thread currently own the object's lock? *)
end

type packed = {
  name : string;
  acquire : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  release : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  wait : ?timeout:float -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  notify : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  notify_all : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  holds : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> bool;
  stats : unit -> Lock_stats.snapshot;
  reset_stats : unit -> unit;
  deflate_idle : Tl_heap.Obj_model.t -> bool;
      (* Quiescence-point deflation hook; schemes without a deflatable
         representation keep the default (always [false]). *)
}

let pack (type a) ?(deflate_idle = fun _ -> false) (module M : S with type ctx = a) (ctx : a)
    : packed =
  {
    name = M.name;
    acquire = M.acquire ctx;
    release = M.release ctx;
    wait = (fun ?timeout env obj -> M.wait ?timeout ctx env obj);
    notify = M.notify ctx;
    notify_all = M.notify_all ctx;
    holds = M.holds ctx;
    stats = (fun () -> Lock_stats.snapshot (M.stats ctx));
    reset_stats = (fun () -> Lock_stats.reset (M.stats ctx));
    deflate_idle;
  }

(* No [Fun.protect]: its closures would be the only allocation of an
   uncontended synchronized block. *)
let synchronized (scheme : packed) env obj f =
  scheme.acquire env obj;
  match f () with
  | v ->
      scheme.release env obj;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      scheme.release env obj;
      Printexc.raise_with_backtrace e bt
