/**
 * @file
 * Content-indexed red-black tree, the data structure behind KSM's
 * stable and unstable trees (Section 2.1).
 *
 * Nodes reference pages by opaque 64-bit handles; a PageAccessor
 * resolves a handle to the page's current bytes (or nullptr when the
 * page is gone, in which case the stale node is pruned during search,
 * as KSM does) and hears about every node that enters or leaves the
 * tree, so a tree can hold resources for its nodes. Ordering is the
 * lexicographic byte order of page contents: searches walk left when
 * the probe page compares smaller than the node's page and right when
 * larger.
 *
 * Comparison work is reported through a hook so the caller (ksmd) can
 * charge core cycles and drive the touched lines through the cache
 * hierarchy — the source of KSM's pollution overhead.
 */

#ifndef PF_KSM_CONTENT_TREE_HH
#define PF_KSM_CONTENT_TREE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace pageforge
{

/** Opaque page handle stored in tree nodes. */
using PageHandle = std::uint64_t;

/** Resolves handles to current page bytes. */
class PageAccessor
{
  public:
    virtual ~PageAccessor() = default;

    /**
     * @return the page's pageSize bytes, or nullptr when the handle no
     *         longer refers to a usable page (stale node)
     */
    virtual const std::uint8_t *resolve(PageHandle handle) = 0;

    /** A node holding @p handle was linked into a tree. */
    virtual void retain(PageHandle handle) { (void)handle; }

    /**
     * A node holding @p handle left a tree: erased, pruned as stale,
     * cleared, or destroyed with the tree.
     */
    virtual void release(PageHandle handle) { (void)handle; }
};

/**
 * Byte comparison outcome between two pages.
 * bytesExamined counts bytes up to and including the first difference
 * (pageSize when equal); it drives the cost model.
 */
struct PageCompare
{
    int sign = 0; //!< <0, 0, >0 like memcmp
    std::uint32_t bytesExamined = 0;

    /** Lines touched in each page to reach the divergence point. */
    std::uint32_t
    linesExamined() const
    {
        return (bytesExamined + lineSize - 1) / lineSize;
    }
};

/** Compare two full pages, reporting the divergence point. */
PageCompare comparePages(const std::uint8_t *a, const std::uint8_t *b);

/** The red-black tree. */
class ContentTree
{
  public:
    struct Node;

    /**
     * Called once per node comparison during search/insert so the
     * caller can charge time and cache traffic.
     *
     * @param node_handle handle of the tree node compared against
     * @param cmp comparison outcome (bytes examined, direction)
     */
    using CompareHook =
        std::function<void(PageHandle node_handle, const PageCompare &cmp)>;

    explicit ContentTree(PageAccessor &accessor);
    ~ContentTree();

    ContentTree(const ContentTree &) = delete;
    ContentTree &operator=(const ContentTree &) = delete;

    /** Result of a content search. */
    struct SearchResult
    {
        Node *match = nullptr;  //!< node with identical content
        Node *parent = nullptr; //!< attach point when no match
        bool insertLeft = false;
        std::uint32_t nodesVisited = 0;
        std::uint64_t bytesCompared = 0;
    };

    /**
     * Search for a page with contents equal to @p probe.
     * Stale nodes encountered are erased and the search restarts.
     * Every node compare is a whole-page comparePages() from byte 0.
     */
    SearchResult search(const std::uint8_t *probe,
                        const CompareHook &hook = {});

    /**
     * Attach a new node at the position a failed search returned, or
     * at one the PageForge driver learned from the hardware traversal
     * (parent and side only; a null parent is the root of an empty
     * tree).
     * @pre result.match == nullptr and the chosen slot is empty
     * @return the new node
     */
    Node *insertAt(const SearchResult &result, PageHandle handle);

    /** Search and attach in one step; returns null if a match exists. */
    Node *insert(PageHandle handle, const CompareHook &hook = {});

    /** Detach and free a node, releasing its handle. */
    void erase(Node *node);

    /**
     * Erase every node whose handle satisfies @p pred (used to purge
     * entries of a destroyed VM).
     * @return number of nodes erased
     */
    std::size_t eraseIf(const std::function<bool(PageHandle)> &pred);

    /** Erase every node whose handle no longer resolves. */
    std::size_t pruneStale();

    /** Drop all nodes (the unstable tree's end-of-pass reset). */
    void clear();

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Root node, or nullptr when empty. */
    Node *root() const;

    /** Children and payload of a node (nullptr when absent). */
    Node *left(const Node *node) const;
    Node *right(const Node *node) const;
    PageHandle handle(const Node *node) const;

    /** In-order traversal over handles. */
    void forEach(const std::function<void(PageHandle)> &fn) const;

    /**
     * Check the red-black invariants and the content ordering; for
     * tests. Returns false (and warns) on violation.
     */
    bool validate();

  private:
    PageAccessor &_accessor;
    Node *_nil;  //!< shared black sentinel
    Node *_root;
    std::size_t _size = 0;

    /**
     * Node pool: nodes are carved from chunked slabs and recycled
     * through an intrusive free list (the parent pointer doubles as
     * the next-free link), so tree churn performs no per-node heap
     * traffic and nodes inserted together stay close in memory.
     */
    std::vector<std::unique_ptr<Node[]>> _chunks;
    std::size_t _chunkUsed = 0; //!< nodes used in the newest chunk
    Node *_freeNodes = nullptr;

    Node *makeNode(PageHandle handle);
    void freeNode(Node *node);
    void destroySubtree(Node *node);

    void rotateLeft(Node *x);
    void rotateRight(Node *x);
    void insertFixup(Node *z);
    void transplant(Node *u, Node *v);
    void eraseFixup(Node *x);

    Node *minimum(Node *node) const;

    bool validateNode(Node *node, int &black_height);
};

} // namespace pageforge

#endif // PF_KSM_CONTENT_TREE_HH
