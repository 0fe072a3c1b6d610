(** The Theorem 5 watermarking scheme: automaton queries on trees.

    Following Lemma 3: a postorder pass groups active weighted nodes into
    minimal blocks of at least [2m] ungrouped members (m = automaton state
    count); blocks with at most one block-descendant are kept, each with
    its region V_i (the subtree at its root minus the subtree at its child
    block's root); inside each block we look for two {e behaviorally
    equivalent} candidates — nodes b, b' such that, for every possible
    entering state at the child block's root, the automaton reaches the
    same state at the block root whether the result pebble sits on b or on
    b'.  Such a pair satisfies, for every parameter a outside V_i,
    b in W_a iff b' in W_a, so orienting the pair (+1,-1) moves no f(a)
    with a outside V_i; a parameter inside V_i meets exactly one pair, so
    the global distortion of {e any} message is at most the number of
    pairs per block (default 1).

    DESIGN.md section 3.2 records why behavioral equivalence (rather than
    the paper's per-entering-state pairs) is used: it is the sound reading
    of the lemma when several pairs are marked at once. *)

type options = {
  block_size : int option;
      (** override the 2m member threshold; must be at least 2 *)
  pairs_per_block : int;  (** default 1; raising it trades distortion for capacity *)
}

val default_options : options

type report = {
  states : int;  (** m *)
  tree_size : int;
  active : int;  (** |W| *)
  predicted_pairs : int;  (** the lemma's |W| / 4m *)
  blocks_formed : int;
  blocks_kept : int;  (** blocks with <= 1 child block *)
  blocks_paired : int;  (** blocks where a behavioral collision existed *)
  capacity : int;  (** total pairs = message bits *)
  certified_distortion : int;  (** pairs_per_block — holds for any message *)
}

type t

val prepare :
  ?options:options -> Wm_trees.Btree.t -> Wm_trees.Tree_query.t ->
  (t, string) result
(** Requires k = 1, s = 1 and a [block_size], if given, of at least 2.
    Fails when no block yields a pair. *)

val report : t -> report
val capacity : t -> int
val pairs : t -> Pairing.pair list
val regions : t -> (int * int option) list
(** (block root, child block root) for each paired block — diagnostics. *)

val query_system : t -> Query_system.t

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t
val detect : t -> original:Weighted.t -> server:Query_system.server ->
  length:int -> Bitvec.t
(** Server-model read ({!Detector.decode_server}), as
    {!Local_scheme.detect}. *)

val detect_weights : t -> original:Weighted.t -> suspect:Weighted.t ->
  length:int -> Bitvec.t
(** Direct read of the first [length] selected pairs
    ({!Detector.decode_weights}); equal to {!detect} over an honest
    server, since every pair member is an active node. *)
