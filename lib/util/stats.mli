(** Descriptive statistics over float arrays.

    DBH's performance model is built entirely from sample statistics
    (collision rates, quantiles of projected values, cost averages); this
    module gathers the numeric plumbing in one place. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Population variance (divides by [n]).  Raises on an empty array. *)

val stddev : float array -> float
(** Population standard deviation. *)

val minimum : float array -> float
(** Smallest element.  Raises on an empty array. *)

val maximum : float array -> float
(** Largest element.  Raises on an empty array. *)

val sum : float array -> float
(** Kahan-compensated sum (exact enough for long cost accumulations). *)

val median : float array -> float
(** Median (average of the two central order statistics for even sizes).
    Does not mutate its argument. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]]: linear interpolation between
    order statistics (type-7, the R/NumPy default).  Does not mutate its
    argument.  Raises on an empty array or out-of-range [q]. *)

val quantiles_of_sorted : float array -> float -> float
(** Same as {!quantile} but assumes the array is already sorted ascending;
    O(1).  Useful when many quantiles are read from one sample. *)

val sort_floats : float array -> unit
(** Sorts in place, ascending in [compare]'s order (NaN first, [-0.] and
    [0.] equal), so elementwise the result equals [Array.sort compare]'s
    up to the order of equal elements: the order {!quantiles_of_sorted}
    reads.  Allocates nothing and boxes no float; O(n log n). *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] partitions [\[min xs, max xs\]] into [bins] equal
    cells and returns [(lo, hi, count)] per cell.  The final cell is
    closed.  Raises on an empty array or [bins <= 0]. *)

val pearson : float array -> float array -> float
(** Pearson correlation of two equal-length arrays.  Returns [0.] when
    either side has zero variance. *)

val mean_ci95 : float array -> float * float
(** [mean_ci95 xs] is the sample mean together with the half-width of a
    normal-approximation 95% confidence interval ([1.96 * s / sqrt n]).
    The half-width is [0.] for singleton samples. *)
