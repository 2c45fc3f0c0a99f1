(** Sorted int arrays: the duplicate and membership checks of the model's
    validations, without building a set. *)

val of_list : ('a -> int) -> 'a list -> int array
(** The keys of the list's elements, ascending. Sorts with
    [Array.stable_sort], which beats [Array.sort] on int arrays; keys
    that arrive in order are not sorted again. *)

val sort : int array -> unit
(** In place, as {!of_list}. *)

val has_duplicate : int array -> bool
(** Two adjacent elements of the sorted array are equal. *)

val find : int array -> int -> int
(** Binary search in the sorted array: a position holding the value, or
    -1. *)

val mem : int array -> int -> bool
(** [find] finds the value. *)
