(** Persistent directed graphs with labelled vertices and edges.

    The stencil program (paper, Sec. II) and the dataflow graphs derived
    from it are DAGs; this module provides the graph substrate shared by
    the IR, the buffer analyses (Sec. IV), and the device partitioner
    (Sec. III-B): topological sorting, cycle detection, and traversals.
    At most one edge exists per (src, dst) pair; re-adding replaces the
    edge label. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (V : ORDERED) : sig
  type vertex = V.t

  type ('a, 'e) t
  (** A graph with vertex labels of type ['a] and edge labels of type ['e]. *)

  val empty : ('a, 'e) t

  val add_vertex : ('a, 'e) t -> vertex -> 'a -> ('a, 'e) t
  (** Insert or relabel a vertex. *)

  val add_edge : ('a, 'e) t -> src:vertex -> dst:vertex -> 'e -> ('a, 'e) t
  (** Insert or relabel the edge [src -> dst]; a relabelled edge moves to
      the end of both adjacency lists. A new edge costs a few set operations,
      so building a vertex's [d] edges takes [O(d log d)]; only a
      relabelling walks the lists. Raises [Invalid_argument] if either
      endpoint is not a vertex of the graph. *)

  val mem_vertex : ('a, 'e) t -> vertex -> bool
  val find_vertex : ('a, 'e) t -> vertex -> 'a option
  val find_vertex_exn : ('a, 'e) t -> vertex -> 'a

  val succs : ('a, 'e) t -> vertex -> (vertex * 'e) list
  (** Outgoing neighbours with edge labels, in insertion order. *)

  val preds : ('a, 'e) t -> vertex -> (vertex * 'e) list
  (** Incoming neighbours with edge labels, in insertion order. *)

  val in_degree : ('a, 'e) t -> vertex -> int
  val vertices : ('a, 'e) t -> (vertex * 'a) list

  val topological_sort : ('a, 'e) t -> (vertex list, vertex list) result
  (** [Ok order] lists every vertex after all its predecessors;
      [Error cycle] returns the vertices of one strongly connected
      component witnessing a cycle. *)

  val is_dag : ('a, 'e) t -> bool

  val reachable_from : ('a, 'e) t -> vertex list -> vertex list
  (** All vertices reachable from the given seeds (seeds included). *)

  val transpose : ('a, 'e) t -> ('a, 'e) t
end
