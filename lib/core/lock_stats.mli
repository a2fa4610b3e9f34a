(** Lock-operation statistics.

    Counters classify every acquire into the paper's scenario ranking
    (§2: unlocked ≫ shallow nested ≫ deep nested ≫ contended without
    queue ≫ contended with queue) and record the nesting depth of every
    acquisition, which is what Figure 3 plots.  Counters are kept in
    per-domain shards of plain integers: a record writes only the
    calling domain's shard, with no atomic operation and no write to
    memory another domain writes, so it costs the same whether one
    domain records or many, and every scheme pays it identically.
    {!snapshot} sums the shards: it is exact once the recording domains
    have joined, and approximate while they run.  Call {!reset} only
    when no domain is recording. *)

type t

val create : unit -> t
val reset : t -> unit

(** {1 Recording — called by locking schemes} *)

val record_acquire_unlocked : t -> Tl_heap.Obj_model.t -> unit
(** Scenario 1: CAS on an unlocked object succeeded (depth 1). *)

val record_acquire_nested : t -> depth:int -> unit
(** Scenarios 2–3: owner re-locked; [depth] is the lock count after
    this acquire (≥ 2). *)

val record_acquire_fat : t -> Tl_heap.Obj_model.t -> queued:bool -> depth:int -> unit
(** Acquire through a fat monitor; [queued] says the thread had to
    block (scenario 5) rather than enter immediately (scenario 4
    shape). *)

val record_contended_spin : t -> spins:int -> unit
(** A thin-lock contender spun [spins] backoff steps before forcing
    inflation (scenario 4). *)

val record_release : t -> [ `Fast | `Nested | `Fat ] -> unit

val record_inflation : t -> [ `Contention | `Wait | `Overflow ] -> unit
val record_wait : t -> unit
val record_notify : t -> unit
val record_notify_all : t -> unit

val record_deflation : t -> unit
(** A fat lock was deflated back to a thin word and its monitor-table
    slot reclaimed (the quiescence-point deflation extension). *)

val deflation_count : t -> int

val add_extra : t -> string -> int -> unit
(** Scheme-specific counters (e.g. the baselines' monitor-cache probes
    and evictions); keys are created on first use.  Lock-free. *)

val register_gauge : t -> string -> (unit -> int) -> unit
(** Register a sampled value (e.g. live monitors) evaluated at
    {!snapshot} time and reported alongside the [extra] counters.
    Re-registering a key replaces the gauge; {!reset} leaves gauges
    alone. *)

(** {1 Snapshots — read by the harness} *)

type snapshot = {
  acquires_unlocked : int;
  acquires_nested : int;
  acquires_fat_fast : int;
  acquires_fat_queued : int;
  contended_spins : int;  (** total backoff steps over all contended episodes *)
  contended_episodes : int;
  releases_fast : int;
  releases_nested : int;
  releases_fat : int;
  inflations_contention : int;
  inflations_wait : int;
  inflations_overflow : int;
  wait_ops : int;
  notify_ops : int;
  notify_all_ops : int;
  deflations : int;  (** quiescence-point deflations (extension) *)
  objects_synchronized : int;
  depth_hist : (int * int) list;  (** (depth, acquires at that depth) *)
  extra : (string * int) list;  (** scheme-specific counters, then gauges *)
}

val snapshot : t -> snapshot

val total_acquires : snapshot -> int
val total_inflations : snapshot -> int

val depth_fraction : snapshot -> int -> float
(** [depth_fraction s d] — fraction of acquires at depth exactly [d]
    (Fig. 3's First/Second/Third columns). *)

val depth_fraction_at_least : snapshot -> int -> float
(** Fraction of acquires at depth ≥ [d] (Fig. 3's "Fourth+"). *)

val syncs_per_object : snapshot -> float
(** Table 1's "Syncs/S.Obj" column. *)

val pp : Format.formatter -> snapshot -> unit
(** Multi-line human-readable dump. *)
